package faultinject

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
)

// Template-mutation injection: the failure mode the watch loop exists to
// detect is not a crash but a silent site redesign — the publisher edits the
// page template and every document's structure shifts under the derived
// schema. The Template injector compresses that into a deterministic,
// seedable transformation of corpus HTML: given the same seed and page key
// it always applies the same mutation, so a chaos sweep that mutates k% of
// templates is exactly reproducible and its drift report can be pinned as a
// golden.

// TemplateOp is one template mutation kind.
type TemplateOp int

const (
	// TemplateNone leaves the page untouched.
	TemplateNone TemplateOp = iota
	// TemplateRenameHeading rewrites a section heading to a phrase outside
	// the concept vocabulary — the redesign that breaks concept tagging.
	TemplateRenameHeading
	// TemplateDropSection deletes one whole section (heading plus content)
	// — frequent paths under it lose support and eventually vanish.
	TemplateDropSection
	// TemplateDuplicateSection repeats one whole section — repetition
	// statistics shift and new starred content models appear.
	TemplateDuplicateSection
	// TemplateWrapBody nests the page body in an extra container div — every
	// label path in the document gains a level.
	TemplateWrapBody
)

// String names the template mutation for reports and test output.
func (o TemplateOp) String() string {
	switch o {
	case TemplateNone:
		return "none"
	case TemplateRenameHeading:
		return "rename-heading"
	case TemplateDropSection:
		return "drop-section"
	case TemplateDuplicateSection:
		return "duplicate-section"
	case TemplateWrapBody:
		return "wrap-body"
	}
	return "unknown"
}

// renamedHeadings are the replacement section titles — deliberately outside
// any concept vocabulary so the mutation reads as structure loss, not a
// relabeling the classifier could absorb.
var renamedHeadings = []string{
	"Miscellany", "Assorted Notes", "Further Particulars", "Addendum",
}

// TemplateConfig parameterizes a Template injector. The zero value mutates
// nothing.
type TemplateConfig struct {
	// Seed makes mutation placement and choice deterministic.
	Seed int64
	// Rate is the fraction of keys mutated, in [0,1].
	Rate float64
	// Ops are the mutation kinds drawn for mutated keys (default: all four).
	Ops []TemplateOp
}

// Template deterministically mutates page HTML to simulate a site redesign.
// A nil *Template is valid and mutates nothing. Safe for concurrent use: it
// holds only its configuration.
type Template struct {
	cfg TemplateConfig
}

// NewTemplate returns a template mutator under cfg.
func NewTemplate(cfg TemplateConfig) *Template {
	if len(cfg.Ops) == 0 {
		cfg.Ops = []TemplateOp{
			TemplateRenameHeading, TemplateDropSection,
			TemplateDuplicateSection, TemplateWrapBody,
		}
	}
	return &Template{cfg: cfg}
}

// keyRNG derives a deterministic rng from a seed and a key path — the same
// scheme Stage.Decide uses, so a (seed, key) pair always draws the same
// stream regardless of call order.
func keyRNG(seed int64, parts ...string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Decide returns the mutation assigned to key — a pure function of the
// configured seed and the key, independent of call history.
func (t *Template) Decide(key string) TemplateOp {
	if t == nil || t.cfg.Rate <= 0 {
		return TemplateNone
	}
	rng := keyRNG(t.cfg.Seed, "template", key)
	if rng.Float64() >= t.cfg.Rate {
		return TemplateNone
	}
	return t.cfg.Ops[rng.Intn(len(t.cfg.Ops))]
}

// Mutate applies key's assigned mutation to html and reports which op ran.
// Unselected keys, nil mutators, and pages without a mutable section come
// back unchanged with TemplateNone. Mutation is idempotent in distribution:
// the same (seed, key, html) always yields the same output.
func (t *Template) Mutate(key, html string) (string, TemplateOp) {
	op := t.Decide(key)
	if op == TemplateNone {
		return html, TemplateNone
	}
	rng := keyRNG(t.cfg.Seed, "template-op", key)
	out, ok := applyTemplateOp(op, html, rng)
	if !ok {
		return html, TemplateNone
	}
	return out, op
}

// sections locates the <h2>-delimited sections of html: each element of the
// result is the [start, end) byte range from a section's opening <h2> to the
// next <h2> or </body>.
func sections(html string) [][2]int {
	var out [][2]int
	lower := strings.ToLower(html)
	end := strings.Index(lower, "</body>")
	if end < 0 {
		end = len(html)
	}
	for at := 0; at < end; {
		i := strings.Index(lower[at:end], "<h2>")
		if i < 0 {
			break
		}
		start := at + i
		next := strings.Index(lower[start+4:end], "<h2>")
		stop := end
		if next >= 0 {
			stop = start + 4 + next
		}
		out = append(out, [2]int{start, stop})
		at = stop
	}
	return out
}

// applyTemplateOp performs one mutation, reporting false when the page has
// no structure the op can attach to.
func applyTemplateOp(op TemplateOp, html string, rng *rand.Rand) (string, bool) {
	if op == TemplateWrapBody {
		lower := strings.ToLower(html)
		open := strings.Index(lower, "<body>")
		close := strings.LastIndex(lower, "</body>")
		if open < 0 || close < 0 || close < open {
			return "", false
		}
		inner := open + len("<body>")
		return html[:inner] + `<div class="redesign">` + html[inner:close] + "</div>" + html[close:], true
	}
	secs := sections(html)
	if len(secs) == 0 {
		return "", false
	}
	sec := secs[rng.Intn(len(secs))]
	body := html[sec[0]:sec[1]]
	switch op {
	case TemplateRenameHeading:
		closeTag := strings.Index(strings.ToLower(body), "</h2>")
		if closeTag < 0 {
			return "", false
		}
		name := renamedHeadings[rng.Intn(len(renamedHeadings))]
		return html[:sec[0]] + "<h2>" + name + body[closeTag:sec[1]-sec[0]] + html[sec[1]:], true
	case TemplateDropSection:
		if len(secs) < 2 {
			return "", false // keep at least one section standing
		}
		return html[:sec[0]] + html[sec[1]:], true
	case TemplateDuplicateSection:
		return html[:sec[1]] + body + html[sec[1]:], true
	}
	return "", false
}
