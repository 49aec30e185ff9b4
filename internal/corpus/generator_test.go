package corpus

import (
	"strings"
	"sync"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/dom"
)

func TestDeterminism(t *testing.T) {
	a := New(Options{Seed: 42}).Corpus(10)
	b := New(Options{Seed: 42}).Corpus(10)
	for i := range a {
		if a[i].HTML != b[i].HTML {
			t.Fatalf("doc %d differs between identical seeds", i)
		}
		if !a[i].Truth.Equal(b[i].Truth) {
			t.Fatalf("truth %d differs between identical seeds", i)
		}
	}
	c := New(Options{Seed: 43}).Corpus(10)
	same := 0
	for i := range a {
		if a[i].HTML == c[i].HTML {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corpus")
	}
}

// TestSharedDefaultSetConcurrent: generators that name no concept set
// share one, from several goroutines at once, and still write exactly what
// a generator with a set of its own writes.
func TestSharedDefaultSetConcurrent(t *testing.T) {
	const workers, docs = 4, 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				got[w] = append(got[w], New(Options{Seed: int64(i)}).Resume().HTML)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < docs; i++ {
		want := New(Options{Seed: int64(i), Set: concept.ResumeSet()}).Resume().HTML
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("worker %d, seed %d: shared-set resume differs from a fresh set's", w, i)
			}
		}
	}
}

func TestCorpusBasics(t *testing.T) {
	docs := New(Options{Seed: 1}).Corpus(50)
	if len(docs) != 50 {
		t.Fatalf("corpus size = %d", len(docs))
	}
	styles := map[Style]int{}
	core := 0
	for i, d := range docs {
		if d.ID != i+1 {
			t.Fatalf("doc %d has ID %d", i, d.ID)
		}
		if d.Name == "" || !strings.Contains(d.HTML, "<body>") {
			t.Fatalf("doc %d malformed metadata", i)
		}
		styles[d.Style]++
		if err := d.Truth.Validate(); err != nil {
			t.Fatalf("doc %d truth invalid: %v", i, err)
		}
		if d.Truth.Tag != "resume" {
			t.Fatalf("truth root = %s", d.Truth.Tag)
		}
		if d.Truth.FindElement("education") != nil && d.Truth.FindElement("experience") != nil {
			core++
		}
	}
	// Both core sections survive in the truth of most documents (quirky
	// headings occasionally hide one).
	if core < len(docs)*6/10 {
		t.Fatalf("only %d/%d docs keep both core sections", core, len(docs))
	}
	if len(styles) < 4 {
		t.Fatalf("style variety too low: %v", styles)
	}
}

func TestTruthOnlyConceptNodes(t *testing.T) {
	set := concept.ResumeSet()
	docs := New(Options{Seed: 2}).Corpus(20)
	for _, d := range docs {
		d.Truth.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode && n != d.Truth && !set.Has(n.Tag) {
				t.Fatalf("truth contains non-concept %q", n.Tag)
			}
			return true
		})
	}
}

func TestTruthDepthRespectsRoles(t *testing.T) {
	set := concept.ResumeSet()
	docs := New(Options{Seed: 3}).Corpus(20)
	for _, d := range docs {
		for _, sec := range d.Truth.Children {
			c := set.Get(sec.Tag)
			if c == nil || c.Role != concept.RoleTitle {
				t.Fatalf("first-level truth node %q is not a title concept", sec.Tag)
			}
		}
	}
}

func TestStyleString(t *testing.T) {
	for s := Style(0); s < numStyles; s++ {
		if strings.HasPrefix(s.String(), "Style(") {
			t.Fatalf("style %d unnamed", int(s))
		}
	}
	if !strings.HasPrefix(Style(99).String(), "Style(") {
		t.Fatal("unknown style should fall back")
	}
}

func TestMalformInjection(t *testing.T) {
	g := New(Options{Seed: 4, MalformProb: 1.0, Styles: []Style{StyleHeadingList}})
	d := g.Resume()
	// At least one end tag dropped somewhere.
	dropped := false
	for _, tag := range []string{"li", "ul", "p", "h2"} {
		if strings.Count(d.HTML, "</"+tag+">") < strings.Count(d.HTML, "<"+tag+">") {
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("malformation did not drop any end tag")
	}
}

func TestDistractorHasNoResumeSections(t *testing.T) {
	g := New(Options{Seed: 5})
	html := g.Distractor()
	for _, kw := range []string{"Education", "Experience", "resume"} {
		if strings.Contains(html, kw) {
			t.Fatalf("distractor mentions %q", kw)
		}
	}
}

// End-to-end sanity: a clean heading-list resume converts to a tree whose
// concept skeleton matches the ground truth exactly.
func TestWellFormedHeadingListMatchesTruth(t *testing.T) {
	g := New(Options{
		Seed: 7, MalformProb: -1, InlineProb: -1, SplitProb: -1,
		QuirkyProb: -1, Styles: []Style{StyleHeadingList},
	})
	conv := convert.New(concept.ResumeSet(), convert.Options{
		RootName:    "resume",
		Constraints: concept.ResumeConstraints(),
	})
	matched := 0
	const n = 20
	for i := 0; i < n; i++ {
		d := g.Resume()
		got, _ := conv.Convert(d.HTML)
		if skeleton(got) == skeleton(d.Truth) {
			matched++
		}
	}
	// Even the cleanest style has occasional hard cases (multi-match
	// tokens); require a strong majority to match exactly.
	if matched < n*3/4 {
		t.Fatalf("only %d/%d clean conversions matched truth exactly", matched, n)
	}
}

// skeleton renders the element-structure of a tree, ignoring attributes.
func skeleton(n *dom.Node) string {
	var b strings.Builder
	var walk func(*dom.Node)
	walk = func(m *dom.Node) {
		if m.Type != dom.ElementNode {
			return
		}
		b.WriteString("(" + m.Tag)
		for _, c := range m.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(n)
	return b.String()
}

func BenchmarkGenerateResume(b *testing.B) {
	g := New(Options{Seed: 11})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Resume()
	}
}
