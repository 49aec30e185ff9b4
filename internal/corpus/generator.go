package corpus

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"webrev/internal/concept"
	"webrev/internal/dom"
)

// Style identifies an authoring style. One style applies per document —
// the paper's assumption that "records within a document follow some regular
// patterns … usually there is only one author for an HTML document".
type Style int

// Authoring styles.
const (
	StyleHeadingList Style = iota // <h2> headings, entries in <ul><li>
	StyleHeadingPara              // <h2>/<h3> headings, entries in <p>
	StyleTable                    // <h2> headings, entries in <table><tr><td>
	StyleDL                       // <dl><dt>heading<dd>entries
	StyleFlatBold                 // <p><b>heading</b></p>, entries in bare <p>
	StyleFlatPlain                // <p>heading</p>, entries in bare <p> — no visual clue
	StyleTable2Col                // two-column table: heading cell + content cell per section
	numStyles
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleHeadingList:
		return "heading-list"
	case StyleHeadingPara:
		return "heading-para"
	case StyleTable:
		return "table"
	case StyleDL:
		return "dl"
	case StyleFlatBold:
		return "flat-bold"
	case StyleFlatPlain:
		return "flat-plain"
	case StyleTable2Col:
		return "table-2col"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Resume is one generated document: heterogeneous HTML plus the ground-truth
// concept tree an ideal conversion yields.
type Resume struct {
	ID    int
	Name  string
	Style Style
	HTML  string
	// Truth is the ideal concept tree, rooted at <resume>. Only element
	// structure is meaningful (the §4.1 metric counts relationship errors
	// among concept nodes).
	Truth *dom.Node
}

// Options configures generation. Zero values select defaults.
type Options struct {
	Seed int64
	// MalformProb is the probability a document has end tags dropped and
	// headings misnested (default 0.2 — tag soup was the norm).
	MalformProb float64
	// Styles restricts the styles drawn; empty means all.
	Styles []Style
	// InlineProb is the probability a document renders each section's
	// entries as one <br>-separated block (default 0.5; negative disables).
	InlineProb float64
	// SplitProb is the probability a document splits long entries across
	// two blocks (default 0.5; negative disables; never combined with
	// inline rendering).
	SplitProb float64
	// QuirkyProb is the probability a document titles one or two sections
	// with wording outside the concept instances (default 0.6; negative
	// disables).
	QuirkyProb float64
	// Set is the concept vocabulary mirrored by ground truth (default: one
	// concept.ResumeSet() that every generator shares).
	Set *concept.Set
}

// defaultSet is the compiled resume vocabulary behind every generator that
// names no Set. Compiling it costs more than generating a resume, and
// generators are often made one per document. Sharing it is safe: a Set
// is read-only, and its FindAll memo is bounded and lock-protected.
var defaultSet = sync.OnceValue(concept.ResumeSet)

// Generator produces resumes deterministically from its seed.
type Generator struct {
	r      *rand.Rand
	opts   Options
	set    *concept.Set
	nextID int
}

// New returns a generator. The same Options yield the same corpus.
func New(opts Options) *Generator {
	if opts.MalformProb == 0 {
		opts.MalformProb = 0.35
	}
	if opts.InlineProb == 0 {
		opts.InlineProb = 0.5
	}
	if opts.SplitProb == 0 {
		opts.SplitProb = 0.5
	}
	if opts.QuirkyProb == 0 {
		opts.QuirkyProb = 0.6
	}
	if opts.Set == nil {
		opts.Set = defaultSet()
	}
	if len(opts.Styles) == 0 {
		opts.Styles = []Style{
			StyleHeadingList, StyleHeadingList, StyleHeadingList,
			StyleHeadingPara, StyleHeadingPara, StyleHeadingPara,
			StyleTable, StyleTable,
			StyleDL, StyleDL,
			StyleTable2Col, StyleTable2Col,
			StyleFlatBold,
			StyleFlatPlain, // the hard tail: no visual structure clue at all
		}
	}
	return &Generator{
		r:    rand.New(rand.NewSource(opts.Seed)),
		opts: opts,
		set:  opts.Set,
	}
}

// Corpus generates n resumes.
func (g *Generator) Corpus(n int) []*Resume {
	out := make([]*Resume, n)
	for i := range out {
		out[i] = g.Resume()
	}
	return out
}

// ---------------------------------------------------------------------------
// Logical model
// ---------------------------------------------------------------------------

// section is one logical resume section: a heading drawn from the title
// concept's instances plus entries, each a list of comma-separated tokens.
type section struct {
	concept string
	heading string
	entries [][]string // each entry is an ordered token list
}

func (g *Generator) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *Generator) personName() string {
	return g.pick(firstNames) + " " + g.pick(lastNames)
}

// headingFor renders a heading for a title concept using one of its
// instances, title-cased, occasionally upper-cased.
func (g *Generator) headingFor(c string) string {
	con := g.set.Get(c)
	inst := con.Name
	if len(con.Instances) > 0 && g.r.Intn(2) == 0 {
		inst = con.Instances[g.r.Intn(len(con.Instances))]
	}
	h := titleCase(inst)
	if g.r.Intn(6) == 0 {
		h = strings.ToUpper(h)
	}
	return h
}

func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if len(w) > 0 {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

func (g *Generator) institution() string {
	return fmt.Sprintf(g.pick(universityForms), g.pick(universityPlaces))
}

func (g *Generator) dateRange() string {
	y1 := 1988 + g.r.Intn(10)
	y2 := y1 + 1 + g.r.Intn(4)
	return fmt.Sprintf("%s %d - %s %d", g.pick(months), y1, g.pick(months), y2)
}

func (g *Generator) date() string {
	return fmt.Sprintf("%s %d", g.pick(months), 1990+g.r.Intn(12))
}

func (g *Generator) gpa() string {
	return fmt.Sprintf("GPA %d.%d/4.0", 2+g.r.Intn(2), g.r.Intn(10))
}

func (g *Generator) company() string {
	return g.pick(companyNames) + " " + g.pick(companySuffixes)
}

// buildModel draws the logical resume: which sections, their headings, and
// entry token orders — all consistent within the document.
func (g *Generator) buildModel() []section {
	var secs []section

	// Contact (always; plain lines that match no instances -> leaf section).
	secs = append(secs, section{
		concept: "contact",
		heading: g.headingFor("contact"),
		entries: [][]string{{
			fmt.Sprintf("%d %s Street", 100+g.r.Intn(900), g.pick(streetNames)),
			g.pick(cityNames),
			fmt.Sprintf("555-%04d", g.r.Intn(10000)),
		}},
	})

	if g.r.Float64() < 0.8 {
		secs = append(secs, section{
			concept: "objective",
			heading: g.headingFor("objective"),
			entries: [][]string{{g.pick(objectivePhrases)}},
		})
	}

	// Education: per-document field order, 1-3 entries.
	eduFields := []string{"institution", "degree", "date"}
	if g.r.Intn(2) == 0 { // date-first authors exist
		eduFields = []string{"date", "institution", "degree"}
	}
	withGPA := g.r.Intn(2) == 0
	nEdu := 2 + g.r.Intn(2)
	edu := section{concept: "education", heading: g.headingFor("education")}
	for i := 0; i < nEdu; i++ {
		var toks []string
		for _, f := range eduFields {
			switch f {
			case "institution":
				toks = append(toks, g.institution())
			case "degree":
				toks = append(toks, g.pick(degrees)+" "+g.pick(majors))
			case "date":
				toks = append(toks, g.date())
			}
		}
		if withGPA {
			toks = append(toks, g.gpa())
		}
		edu.entries = append(edu.entries, toks)
	}
	secs = append(secs, edu)

	// Experience: 1-3 entries with per-document field order.
	expDateFirst := g.r.Intn(3) == 0
	nExp := 2 + g.r.Intn(3)
	exp := section{concept: "experience", heading: g.headingFor("experience")}
	for i := 0; i < nExp; i++ {
		toks := []string{g.company(), g.pick(jobTitles), g.dateRange(), g.pick(descriptionPhrases)}
		if expDateFirst {
			toks = []string{g.dateRange(), g.company(), g.pick(jobTitles), g.pick(descriptionPhrases)}
		}
		exp.entries = append(exp.entries, toks)
	}
	secs = append(secs, exp)

	// Skills: one entry listing 3-6 skills, each its own token.
	if g.r.Float64() < 0.9 {
		n := 3 + g.r.Intn(4)
		perm := g.r.Perm(len(skillWords))[:n]
		var toks []string
		for _, i := range perm {
			toks = append(toks, skillWords[i])
		}
		secs = append(secs, section{
			concept: "skills",
			heading: g.headingFor("skills"),
			entries: [][]string{toks},
		})
	}

	// Optional tail sections.
	if g.r.Float64() < 0.5 {
		secs = append(secs, section{
			concept: "courses",
			heading: g.headingFor("courses"),
			entries: [][]string{{g.pick(coursePhrases), g.date()}, {g.pick(coursePhrases), g.date()}},
		})
	}
	if g.r.Float64() < 0.4 {
		secs = append(secs, section{
			concept: "awards",
			heading: g.headingFor("awards"),
			entries: [][]string{{g.pick(awardPhrases)}},
		})
	}
	if g.r.Float64() < 0.4 {
		secs = append(secs, section{
			concept: "activities",
			heading: g.headingFor("activities"),
			entries: [][]string{{g.pick(activityPhrases)}},
		})
	}
	if g.r.Float64() < 0.4 {
		pubs := section{concept: "publications", heading: g.headingFor("publications")}
		for i := 0; i < 2+g.r.Intn(2); i++ {
			pubs.entries = append(pubs.entries,
				[]string{"On " + g.pick(coursePhrases), g.date()})
		}
		secs = append(secs, pubs)
	}
	if g.r.Float64() < 0.4 {
		projs := section{concept: "projects", heading: g.headingFor("projects")}
		for i := 0; i < 1+g.r.Intn(2); i++ {
			projs.entries = append(projs.entries, []string{
				g.pick(coursePhrases) + " tool",
				g.pick(skillWords), g.pick(skillWords), g.date(),
			})
		}
		secs = append(secs, projs)
	}
	if g.r.Float64() < 0.6 {
		secs = append(secs, section{
			concept: "reference",
			heading: g.headingFor("reference"),
			entries: [][]string{{g.pick(referencePhrases)}},
		})
	}

	// Vocabulary gaps: some authors title sections in ways no concept
	// instance covers; the section context is then unrecoverable.
	if g.r.Float64() < g.opts.QuirkyProb {
		secs[1+g.r.Intn(len(secs)-1)].heading = g.pick(quirkyHeadings)
		if g.r.Float64() < 0.4 {
			secs[1+g.r.Intn(len(secs)-1)].heading = g.pick(quirkyHeadings)
		}
	}
	return secs
}

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

// truthTree builds the ideal conversion result for the model, mirroring the
// consolidation-rule semantics an error-free run produces on well-marked-up
// input: an entry's concepts stay siblings when they share one name and
// otherwise nest under the entry's first concept; entry heads stay siblings
// under the section when uniform and otherwise nest under the first head;
// and sections are siblings under <resume>. Conversion error is then
// measured purely on structural recovery from degraded visual markup.
func (g *Generator) truthTree(secs []section) *dom.Node {
	root := dom.NewElement("resume")
	for _, s := range secs {
		secNode := g.matchSingle(s.heading)
		if secNode == nil {
			continue // heading failed to match: section text folds upward
		}
		// Entry folds (the per-<li>/<dd>/<td> consolidation).
		var heads []*dom.Node
		for _, entry := range s.entries {
			var els []*dom.Node
			for _, tok := range entry {
				els = append(els, g.matchToken(tok)...)
			}
			switch {
			case len(els) == 0:
			case sameTag(els) || g.allTitles(els):
				heads = append(heads, els...)
			default:
				head := els[0]
				for _, e := range els[1:] {
					head.AppendChild(e)
				}
				heads = append(heads, head)
			}
		}
		// Group fold over the entry heads.
		if len(heads) > 1 && !sameTag(heads) && !g.allTitles(heads) {
			for _, h := range heads[1:] {
				heads[0].AppendChild(h)
			}
			heads = heads[:1]
		}
		// Section fold: the heading node and the group result.
		level := append([]*dom.Node{secNode}, heads...)
		if sameTag(level) || g.allTitles(level) {
			for _, n := range level {
				root.AppendChild(n)
			}
			continue
		}
		for _, h := range heads {
			secNode.AppendChild(h)
		}
		root.AppendChild(secNode)
	}
	return root
}

func sameTag(els []*dom.Node) bool {
	if len(els) < 2 {
		return false
	}
	for _, e := range els[1:] {
		if e.Tag != els[0].Tag {
			return false
		}
	}
	return true
}

// allTitles reports whether els are two or more title-role concepts (the
// consolidation rule keeps such siblings flat under role constraints).
func (g *Generator) allTitles(els []*dom.Node) bool {
	if len(els) < 2 {
		return false
	}
	for _, e := range els {
		c := g.set.Get(e.Tag)
		if c == nil || c.Role != concept.RoleTitle {
			return false
		}
	}
	return true
}

// matchSingle returns the concept element for a text expected to match one
// concept, or nil.
func (g *Generator) matchSingle(text string) *dom.Node {
	ms := g.set.FindAll(text)
	if len(ms) == 0 {
		return nil
	}
	el := dom.NewElement(ms[0].Concept)
	el.SetVal(text)
	return el
}

// matchToken mirrors the concept instance rule exactly (including the
// multi-instance decomposition) so the ground truth contains precisely the
// concept nodes an ideal conversion emits.
func (g *Generator) matchToken(tok string) []*dom.Node {
	ms := g.set.FindAll(tok)
	switch len(ms) {
	case 0:
		return nil
	case 1:
		el := dom.NewElement(ms[0].Concept)
		el.SetVal(tok)
		return []*dom.Node{el}
	default:
		out := make([]*dom.Node, 0, len(ms))
		for i, m := range ms {
			end := len(tok)
			if i+1 < len(ms) {
				end = ms[i+1].Start
			}
			el := dom.NewElement(m.Concept)
			el.SetVal(strings.TrimSpace(tok[m.Start:end]))
			out = append(out, el)
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------------

// Resume generates one document.
func (g *Generator) Resume() *Resume {
	g.nextID++
	name := g.personName()
	secs := g.buildModel()
	style := g.opts.Styles[g.r.Intn(len(g.opts.Styles))]
	delim := ", "
	if g.r.Intn(4) == 0 {
		delim = "; "
	}
	// Some authors run all of a section's records into one block separated
	// by <br> — visually fine, structurally ambiguous.
	inline := g.r.Float64() < g.opts.InlineProb
	// Some authors split one logical record across two lines ("University
	// of X, B.S." / "June 1996, GPA 3.8") — a continuation the grouping
	// rule cannot see.
	split := !inline && g.r.Float64() < g.opts.SplitProb
	html := g.renderHTML(name, secs, style, delim, inline, split)
	if g.r.Float64() < g.opts.MalformProb {
		html = g.malform(html)
	}
	return &Resume{
		ID:    g.nextID,
		Name:  name,
		Style: style,
		HTML:  html,
		Truth: g.truthTree(secs),
	}
}

func (g *Generator) renderHTML(name string, secs []section, style Style, delim string, inline, split bool) string {
	var b strings.Builder
	b.WriteString("<html><head><title>")
	b.WriteString(name)
	b.WriteString("</title></head><body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", name)
	// One author, one convention: the heading element is fixed per document.
	hTag := "h2"
	if style == StyleHeadingPara && g.r.Intn(3) == 0 {
		hTag = "h3"
	}
	if style == StyleTable2Col {
		b.WriteString("<table>\n")
	}
	for _, s := range secs {
		g.renderSection(&b, s, style, hTag, delim, inline, split)
	}
	if style == StyleTable2Col {
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

func (g *Generator) renderSection(b *strings.Builder, s section, style Style, hTag, delim string, inline, split bool) {
	// Continuation-line authors: each long entry becomes two blocks.
	entries := s.entries
	if split {
		var out [][]string
		for _, e := range entries {
			if len(e) >= 3 {
				out = append(out, e[:2], e[2:])
			} else {
				out = append(out, e)
			}
		}
		entries = out
	}
	entryText := func(entry []string) string {
		t := strings.Join(entry, delim)
		if g.r.Intn(5) == 0 { // occasional inline emphasis noise
			t = "<font size=\"2\">" + t + "</font>"
		}
		return t
	}
	// All entries of the section as one <br>-separated block.
	inlineBlock := func() string {
		var parts []string
		for _, e := range entries {
			parts = append(parts, entryText(e))
		}
		return strings.Join(parts, "<br>\n")
	}
	switch style {
	case StyleHeadingList:
		fmt.Fprintf(b, "<h2>%s</h2>\n<ul>\n", s.heading)
		for _, e := range entries {
			fmt.Fprintf(b, "<li>%s</li>\n", entryText(e))
		}
		b.WriteString("</ul>\n")
	case StyleHeadingPara:
		fmt.Fprintf(b, "<%s>%s</%s>\n", hTag, s.heading, hTag)
		if inline {
			fmt.Fprintf(b, "<p>%s</p>\n", inlineBlock())
			return
		}
		for _, e := range entries {
			fmt.Fprintf(b, "<p>%s</p>\n", entryText(e))
		}
	case StyleTable:
		fmt.Fprintf(b, "<h2>%s</h2>\n<table>\n", s.heading)
		for _, e := range entries {
			fmt.Fprintf(b, "<tr><td>%s</td></tr>\n", entryText(e))
		}
		b.WriteString("</table>\n")
	case StyleDL:
		fmt.Fprintf(b, "<dl>\n<dt>%s</dt>\n", s.heading)
		for _, e := range entries {
			fmt.Fprintf(b, "<dd>%s</dd>\n", entryText(e))
		}
		b.WriteString("</dl>\n")
	case StyleFlatBold:
		fmt.Fprintf(b, "<p><b>%s</b></p>\n", s.heading)
		if inline {
			fmt.Fprintf(b, "<p>%s</p>\n", inlineBlock())
			return
		}
		for _, e := range entries {
			fmt.Fprintf(b, "<p>%s</p>\n", entryText(e))
		}
	case StyleFlatPlain:
		fmt.Fprintf(b, "<p>%s</p>\n", s.heading)
		for _, e := range entries {
			fmt.Fprintf(b, "<p>%s</p>\n", entryText(e))
		}
	case StyleTable2Col:
		fmt.Fprintf(b, "<tr><td><b>%s</b></td><td>%s</td></tr>\n", s.heading, inlineBlock())
	}
}

// malform injects era-typical tag soup: dropped end tags and a misnested
// heading. The information content is untouched.
func (g *Generator) malform(html string) string {
	all := []string{"</li>", "</ul>", "</p>", "</td>", "</tr>", "</dd>"}
	var drops []string
	for _, d := range all {
		if strings.Contains(html, d) {
			drops = append(drops, d)
		}
	}
	for i := 0; i < 2+g.r.Intn(4) && len(drops) > 0; i++ {
		d := drops[g.r.Intn(len(drops))]
		html = strings.Replace(html, d, "", 1)
	}
	if g.r.Intn(2) == 0 {
		html = strings.Replace(html, "</h2>", "", 1)
	}
	return html
}

// Distractor generates an off-topic page for the crawler experiment.
func (g *Generator) Distractor() string {
	topic := g.pick(distractorTopics)
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body><h1>%s</h1>\n", topic, topic)
	for i := 0; i < 3+g.r.Intn(4); i++ {
		fmt.Fprintf(&b, "<p>Notes about %s, item %d. Nothing career related here.</p>\n",
			strings.ToLower(topic), i+1)
	}
	b.WriteString("</body></html>\n")
	return b.String()
}
