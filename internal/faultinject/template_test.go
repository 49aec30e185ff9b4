package faultinject

import (
	"strings"
	"testing"

	"webrev/internal/corpus"
)

func mutatedCount(t *testing.T, tm *Template, pages map[string]string) int {
	t.Helper()
	n := 0
	for key, html := range pages {
		out, op := tm.Mutate(key, html)
		if op == TemplateNone {
			if out != html {
				t.Fatalf("%s: TemplateNone but HTML changed", key)
			}
			continue
		}
		if out == html {
			t.Fatalf("%s: op %v applied but HTML unchanged", key, op)
		}
		n++
	}
	return n
}

func corpusPages(n int, seed int64) map[string]string {
	g := corpus.New(corpus.Options{Seed: seed})
	pages := make(map[string]string)
	for _, r := range g.Corpus(n) {
		pages[r.Name] = r.HTML
	}
	return pages
}

// TestTemplateDeterministic: same seed → identical mutation placement and
// output; different seed → (overwhelmingly) different placement.
func TestTemplateDeterministic(t *testing.T) {
	pages := corpusPages(30, 3)
	a, b := NewTemplate(TemplateConfig{Seed: 1, Rate: 0.5}), NewTemplate(TemplateConfig{Seed: 1, Rate: 0.5})
	for key, html := range pages {
		outA, opA := a.Mutate(key, html)
		outB, opB := b.Mutate(key, html)
		if outA != outB || opA != opB {
			t.Fatalf("%s: same seed diverged (%v vs %v)", key, opA, opB)
		}
	}
	other := NewTemplate(TemplateConfig{Seed: 2, Rate: 0.5})
	same := 0
	for key := range pages {
		if a.Decide(key) == other.Decide(key) {
			same++
		}
	}
	if same == len(pages) {
		t.Fatal("different seeds produced identical placement on every page")
	}
}

// TestTemplateRate: the mutated fraction tracks the configured rate, and a
// zero-rate or nil mutator touches nothing.
func TestTemplateRate(t *testing.T) {
	pages := corpusPages(60, 7)
	tm := NewTemplate(TemplateConfig{Seed: 11, Rate: 0.2})
	n := mutatedCount(t, tm, pages)
	if n < 3 || n > 30 {
		t.Fatalf("rate 0.2 over %d pages mutated %d", len(pages), n)
	}
	if got := mutatedCount(t, NewTemplate(TemplateConfig{Seed: 11}), pages); got != 0 {
		t.Fatalf("zero rate mutated %d pages", got)
	}
	var nilT *Template
	if out, op := nilT.Mutate("k", "<html></html>"); op != TemplateNone || out != "<html></html>" {
		t.Fatal("nil mutator mutated")
	}
}

// TestTemplateOps pins each op's structural effect on a representative page.
func TestTemplateOps(t *testing.T) {
	html := "<html><body><h1>T</h1>\n<h2>Education</h2>\n<ul><li>x</li></ul>\n" +
		"<h2>Skills</h2>\n<p>y</p>\n</body></html>"
	rng := keyRNG(1, "t")
	if out, ok := applyTemplateOp(TemplateRenameHeading, html, rng); !ok ||
		strings.Count(out, "<h2>") != 2 || out == html {
		t.Errorf("rename-heading: ok=%v out=%q", ok, out)
	}
	if out, ok := applyTemplateOp(TemplateDropSection, html, rng); !ok || strings.Count(out, "<h2>") != 1 {
		t.Errorf("drop-section: ok=%v h2s=%d", ok, strings.Count(out, "<h2>"))
	}
	if out, ok := applyTemplateOp(TemplateDuplicateSection, html, rng); !ok || strings.Count(out, "<h2>") != 3 {
		t.Errorf("duplicate-section: ok=%v h2s=%d", ok, strings.Count(out, "<h2>"))
	}
	out, ok := applyTemplateOp(TemplateWrapBody, html, rng)
	if !ok || !strings.Contains(out, `<body><div class="redesign">`) || !strings.HasSuffix(out, "</div></body></html>") {
		t.Errorf("wrap-body: ok=%v out=%q", ok, out)
	}
	// Pages with no mutable structure come back untouched as TemplateNone.
	tm := NewTemplate(TemplateConfig{Seed: 0, Rate: 1, Ops: []TemplateOp{TemplateDropSection}})
	bare := "<html><body><h2>Only</h2><p>z</p></body></html>"
	if out, op := tm.Mutate("k", bare); op != TemplateNone || out != bare {
		t.Errorf("last standing section dropped: op=%v", op)
	}
}
