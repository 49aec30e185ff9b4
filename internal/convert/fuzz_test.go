package convert_test

import (
	"reflect"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/corpus"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// fuzzSeeds is FuzzConvert's seed corpus.
func fuzzSeeds() []string {
	g := corpus.New(corpus.Options{Seed: 11})
	seeds := []string{
		"",
		"<h1>Jane Doe</h1><h2>Education</h2><ul><li>MIT, B.S., June 1999</li></ul>",
		"<h2>Experience</h2><p>Acme, Engineer, 1998 - 2000",
		"<h2>Education</h2><h2>Education</h2>", // duplicate sections
		"<ul><li>June 1999<li>GPA 3.9</ul>",
		"<p>no concepts here at all</p>",
		"<table><tr><td>Skills</td><td>Go, SQL</table>",
		"\x00<h1>\xff</h1>",
		// Shapes that once converted to undecodable XML.
		`<h1>John Roe</h1><EduCAtion! x="1">Stanford University, M.S., 1998</EduCAtion!>`,
		"<p val=\"a\x01b\">Stanford University</p>",
		"<p>x\uFFFEy\uFFFFz</p>",
		// HTML val attributes that once landed in converted vals.
		`<education val="c">MIT</education>`,
		`<h1>John Smith</h1><p val="x">Stanford University</p><ul><li val="y">1998</li></ul>`,
	}
	for _, r := range g.Corpus(3) {
		seeds = append(seeds, r.HTML)
	}
	if long := g.Resume().HTML; len(long) > 40 {
		seeds = append(seeds, long[:2*len(long)/3])
	}
	return seeds
}

// FuzzConvert runs the full conversion pipeline (parse, tidy, tokenize,
// instance rules, grouping, consolidation) on arbitrary HTML. Malformed or
// truncated input must never panic, the result must be a valid tree rooted
// at the configured root concept, the token accounting must balance, and
// the stored form must decode back to itself.
func FuzzConvert(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	set := concept.ResumeSet()
	f.Fuzz(func(t *testing.T, src string) {
		c := convert.New(set, convert.Options{RootName: "resume"})
		root, stats := c.Convert(src)
		if root == nil {
			t.Fatal("Convert returned nil root")
		}
		if err := root.Validate(); err != nil {
			t.Fatalf("Convert produced an invalid tree: %v", err)
		}
		if root.Tag != "resume" {
			t.Fatalf("root = %q, want %q", root.Tag, "resume")
		}
		if stats.Tokens < 0 || stats.IdentifiedTokens < 0 || stats.UnidentifiedTokens < 0 {
			t.Fatalf("negative stats: %+v", stats)
		}
		if stats.IdentifiedTokens+stats.UnidentifiedTokens > stats.Tokens {
			t.Fatalf("token accounting does not balance: %+v", stats)
		}
		if r := stats.IdentifiedRatio(); r < 0 || r > 1 {
			t.Fatalf("IdentifiedRatio out of range: %v (%+v)", r, stats)
		}
		stored := xmlout.Marshal(root)
		back, err := xmlout.UnmarshalElement(stored)
		if err != nil {
			t.Fatalf("stored form does not decode: %v\n%s", err, stored)
		}
		if again := xmlout.Marshal(back); again != stored {
			t.Fatalf("stored form changed in a round trip:\n%s\nwant\n%s", again, stored)
		}
	})
}

// TestConvertStoresOnlyXML: the shapes that once made a converted page
// undecodable now store as XML the decoder reads back. An HTML element
// named like a concept keeps only its val; an HTML val attribute, control
// byte included, is dropped; U+FFFE and U+FFFF in text become U+FFFD.
func TestConvertStoresOnlyXML(t *testing.T) {
	c := convert.New(concept.ResumeSet(), convert.Options{RootName: "resume"})
	for _, tc := range []struct{ src, want string }{
		{`<h1>John Roe</h1><EduCAtion! x="1">Stanford University, M.S., 1998</EduCAtion!>`, `<education val="1998">`},
		{"<p val=\"a\x01b\">Stanford University</p>", "<resume>\n  <institution val=\"Stanford University\"/>"},
		{"<p>x\uFFFEy\uFFFFz</p>", "<resume val=\"x\uFFFDy\uFFFDz\"/>"},
	} {
		root, _ := c.Convert(tc.src)
		stored := xmlout.Marshal(root)
		if !strings.Contains(stored, tc.want) {
			t.Errorf("%q stored as\n%s\nwant it to hold %q", tc.src, stored, tc.want)
		}
		if _, err := xmlout.UnmarshalElement(stored); err != nil {
			t.Errorf("%q: stored form does not decode: %v", tc.src, err)
		}
	}
}

// TestConvertIgnoresHTMLVal: a val attribute in the page's markup is not
// text, so no converted val may hold it. Each page converts to the same
// XML as the page without its val attributes.
func TestConvertIgnoresHTMLVal(t *testing.T) {
	c := convert.New(concept.ResumeSet(), convert.Options{RootName: "resume"})
	for _, tc := range []struct{ src, plain string }{
		{`<education val="c">MIT</education>`, `<education>MIT</education>`},
		{`<h1>John Smith</h1><p val="x">Stanford University</p><ul><li val="y">1998</li></ul>`,
			`<h1>John Smith</h1><p>Stanford University</p><ul><li>1998</li></ul>`},
	} {
		got, _ := c.Convert(tc.src)
		want, _ := c.Convert(tc.plain)
		if g, w := xmlout.Marshal(got), xmlout.Marshal(want); g != w {
			t.Errorf("%q converts to\n%s\nwant, as without its val attributes,\n%s", tc.src, g, w)
		}
	}
}

// TestExtractSurvivesStoreRoundTrip: the label-path statistics of a
// converted document are unchanged by a trip through its stored form
// (xmlout.Marshal, then xmlout.UnmarshalElement), for every golden-corpus
// document and every FuzzConvert seed, with and without the constraints the
// golden build converts under. A resumed build and a loaded watch state
// rebuild their accumulators from stored XML on this property.
func TestExtractSurvivesStoreRoundTrip(t *testing.T) {
	inputs := fuzzSeeds()
	for _, r := range corpus.New(corpus.Options{Seed: 99}).Corpus(12) { // the golden corpus
		inputs = append(inputs, r.HTML)
	}
	set := concept.ResumeSet()
	for _, opts := range []convert.Options{
		{RootName: "resume"},
		{RootName: "resume", Constraints: concept.ResumeConstraints()},
	} {
		c := convert.New(set, opts)
		for i, src := range inputs {
			root, _ := c.Convert(src)
			back, err := xmlout.UnmarshalElement(xmlout.Marshal(root))
			if err != nil {
				t.Fatalf("input %d: stored form does not decode: %v", i, err)
			}
			if got, want := schema.Extract(back), schema.Extract(root); !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d: label paths after the round trip\n%+v\nwant\n%+v", i, got, want)
			}
		}
	}
}
