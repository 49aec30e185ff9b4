package pathindex

// Frozen is an immutable, read-optimized form of an Index, the shape
// webrevd serves queries from. Freeze sorts the path universe once; the
// postings, their per-path aggregates and the sorted per-label path lists
// are the Index's own, which Frozen returns without the copy the Index
// makes.
//
// A Frozen is safe for unsynchronized concurrent use: Go maps and slices
// are safe for any number of readers. Callers must treat every returned
// slice as read-only — they are the shared precomputed forms, not copies.
type Frozen struct {
	docs    int
	byPath  map[string]postings // shared with the Index
	paths   []string            // all paths, sorted
	byLabel map[string][]string // shared with the Index
}

// Freeze compiles the index into its immutable serving form, which shares
// the index's postings and tables.
func (ix *Index) Freeze() *Frozen {
	return &Frozen{
		docs:    ix.docs,
		byPath:  ix.byPath,
		paths:   ix.Paths(),
		byLabel: ix.byLabel,
	}
}

// Docs returns the number of indexed documents.
func (f *Frozen) Docs() int { return f.docs }

// Paths returns every indexed label path, sorted. The slice is shared —
// do not modify.
func (f *Frozen) Paths() []string { return f.paths }

// PathsEndingIn returns the indexed paths whose final label is label,
// sorted. Unlike the Index's, the list is not copied: no per-call
// allocation. The slice is shared — do not modify.
func (f *Frozen) PathsEndingIn(label string) []string { return f.byLabel[label] }

// Lookup returns all occurrences of the exact label path, in indexing
// order. The slice is shared — do not modify.
func (f *Frozen) Lookup(path string) []Ref { return f.byPath[path].refs }

// DocFrequency returns the number of distinct documents containing the
// path.
func (f *Frozen) DocFrequency(path string) int { return f.byPath[path].docs }

// AvgPosition returns the mean child position of the path's occurrences.
func (f *Frozen) AvgPosition(path string) (float64, bool) {
	return f.byPath[path].avgPosition()
}
