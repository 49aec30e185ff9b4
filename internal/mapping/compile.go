package mapping

import "webrev/internal/dtd"

// compiledElem is the per-element conformance table: the declaration plus
// the content-model-position map conformNode would otherwise rebuild for
// every node visit. Read-only after construction, shared across parallel
// mapping workers.
type compiledElem struct {
	decl *dtd.Element
	pos  map[string]int // child tag admitted by the model -> its particle index
}

// compiledDTD indexes compiledElem by element name.
type compiledDTD struct {
	elems map[string]*compiledElem
}

// Precompile builds the conformance index for d and caches it on the DTD,
// so subsequent Conform/ConformScript calls — including concurrent ones —
// reuse it instead of rebuilding per-node lookup tables. core.DeriveDTD
// calls this once per derived DTD; the cache assumes d's declarations are
// immutable from then on. Calling it again is a cheap no-op.
func Precompile(d *dtd.DTD) {
	if d == nil {
		return
	}
	if _, ok := d.Compiled().(*compiledDTD); !ok {
		d.StoreCompiled(buildCompiled(d))
	}
}

// compiledIndex returns the conformance index for d, building and caching
// it on a miss. hit reports whether the index was already cached.
func compiledIndex(d *dtd.DTD) (cd *compiledDTD, hit bool) {
	if cd, ok := d.Compiled().(*compiledDTD); ok {
		return cd, true
	}
	cd = buildCompiled(d)
	d.StoreCompiled(cd)
	return cd, false
}

func buildCompiled(d *dtd.DTD) *compiledDTD {
	cd := &compiledDTD{elems: make(map[string]*compiledElem, len(d.Elements))}
	for _, el := range d.Elements {
		ce := &compiledElem{decl: el, pos: make(map[string]int, len(el.Children))}
		for i, c := range el.Children {
			ce.pos[c.Name] = i
		}
		cd.elems[el.Name] = ce
	}
	return cd
}
