package watch

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/xmlout"
)

func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// renderRepo flattens a repository to its deterministic text artifacts.
func renderRepo(r *core.Repository) string {
	var b strings.Builder
	b.WriteString(r.DTD.Render())
	for i, c := range r.Conformed {
		b.WriteString(r.Docs[i].Source)
		b.WriteString("\n")
		b.WriteString(xmlout.Marshal(c))
	}
	return b.String()
}

func newSite(t testing.TB, n int, seed int64) (*crawler.Site, *httptest.Server) {
	t.Helper()
	g := corpus.New(corpus.Options{Seed: seed})
	site := crawler.BuildSite(g.Corpus(n), []string{g.Distractor()})
	srv := httptest.NewServer(site.Handler())
	t.Cleanup(srv.Close)
	return site, srv
}

func newWatcher(t testing.TB, srv *httptest.Server, opt Options) *Watcher {
	t.Helper()
	if opt.Pipeline == nil {
		opt.Pipeline = testPipeline(t)
	}
	if opt.Crawler == nil {
		opt.Crawler = &crawler.Crawler{
			Client: srv.Client(),
			Filter: crawler.ResumeFilter(3),
			Fetch:  crawler.FetchPolicy{Revalidate: true, MaxRetries: -1},
		}
	}
	if opt.Seed == "" {
		opt.Seed = srv.URL + "/"
	}
	w, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// coldRepo rebuilds the watcher's current corpus state from scratch: the
// live page bodies, in the watcher's document order, through a fresh
// pipeline's batch build.
func coldRepo(t *testing.T, w *Watcher, site *crawler.Site, base string) *core.Repository {
	t.Helper()
	var sources []core.Source
	for _, u := range w.DocURLs() {
		html, ok := site.Page(strings.TrimPrefix(u, base))
		if !ok {
			t.Fatalf("watcher tracks %s but the site no longer serves it", u)
		}
		sources = append(sources, core.Source{Name: u, HTML: html})
	}
	repo, err := testPipeline(t).Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// mutatePages runs the template mutator over every resume page, applying
// what it selects, and returns the mutated paths.
func mutatePages(t testing.TB, site *crawler.Site, tm *faultinject.Template) []string {
	t.Helper()
	var mutated []string
	for _, path := range site.Paths() {
		if !strings.HasPrefix(path, "/resumes/") {
			continue
		}
		html, _ := site.Page(path)
		if out, op := tm.Mutate(path, html); op != faultinject.TemplateNone {
			site.SetPage(path, out)
			mutated = append(mutated, path)
		}
	}
	return mutated
}

// linkFromRoot appends a link to path on the site's index page.
func linkFromRoot(t *testing.T, site *crawler.Site, path string) {
	t.Helper()
	root, ok := site.Page("/")
	if !ok {
		t.Fatal("site has no index page")
	}
	site.SetPage("/", strings.Replace(root, "</ul>",
		`<li><a href="`+path+`">x</a></li></ul>`, 1))
}

// TestWatchIncrementalMatchesCold is the equivalence wall: across cycles of
// randomized template mutations, page additions, and removals, every
// incremental rebuild is byte-identical to a cold full build of the same
// corpus state.
func TestWatchIncrementalMatchesCold(t *testing.T) {
	site, srv := newSite(t, 10, 3)
	w := newWatcher(t, srv, Options{})

	res, err := w.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift.Docs.New == 0 || res.Drift.Docs.New != w.Docs() {
		t.Fatalf("seed cycle: %d new docs, watcher tracks %d", res.Drift.Docs.New, w.Docs())
	}
	if got, want := renderRepo(res.Repo), renderRepo(coldRepo(t, w, site, srv.URL)); got != want {
		t.Fatal("seed cycle diverges from cold build")
	}

	fresh := corpus.New(corpus.Options{Seed: 91})
	extra := fresh.Corpus(3)
	for cycle := 2; cycle <= 5; cycle++ {
		tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: int64(cycle), Rate: 0.4})
		mutated := mutatePages(t, site, tm)
		if cycle == 3 {
			site.RemovePage("/resumes/4.html")
			add := "/resumes/extra-3.html"
			site.SetPage(add, extra[0].HTML)
			linkFromRoot(t, site, add)
		}
		if cycle == 4 {
			site.SetPage("/resumes/extra-4.html", extra[1].HTML)
			linkFromRoot(t, site, "/resumes/extra-4.html")
		}
		res, err := w.Cycle(context.Background())
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if res.Cycle != cycle {
			t.Fatalf("cycle ordinal %d, want %d", res.Cycle, cycle)
		}
		d := res.Drift.Docs
		if len(mutated) > 0 && d.Changed+d.Vanished == 0 {
			t.Fatalf("cycle %d mutated %d pages but delta is %+v", cycle, len(mutated), d)
		}
		if got, want := renderRepo(res.Repo), renderRepo(coldRepo(t, w, site, srv.URL)); got != want {
			t.Fatalf("cycle %d diverges from cold build of the same corpus state", cycle)
		}
	}
}

// TestWatchDriftReport: duplicating sections in a third of the templates
// changes repetition statistics; the report names the cycle's changed
// documents and the DTD movement, and stays quiet on a no-op cycle.
func TestWatchDriftReport(t *testing.T) {
	site, srv := newSite(t, 12, 5)
	w := newWatcher(t, srv, Options{MinSupportShift: 0.01})
	if _, err := w.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}

	tm := faultinject.NewTemplate(faultinject.TemplateConfig{
		Seed: 7, Rate: 0.4,
		Ops: []faultinject.TemplateOp{faultinject.TemplateDuplicateSection},
	})
	mutated := mutatePages(t, site, tm)
	if len(mutated) == 0 {
		t.Fatal("mutator selected no pages")
	}
	res, err := w.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Drift.Docs.Changed; got != len(mutated) {
		t.Fatalf("drift reports %d changed docs, mutated %d", got, len(mutated))
	}
	if !strings.Contains(res.Drift.Summary(), "changed") {
		t.Fatalf("summary: %s", res.Drift.Summary())
	}

	// A quiet cycle: everything revalidates, schema stable.
	res, err = w.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Drift
	if d.Shifted() || d.Docs.Changed != 0 || d.Docs.New != 0 || d.Docs.Vanished != 0 {
		t.Fatalf("quiet cycle reported drift: %s", d.Summary())
	}
	if d.Docs.Unchanged != w.Docs() {
		t.Fatalf("quiet cycle: %d unchanged, corpus has %d", d.Docs.Unchanged, w.Docs())
	}
	if len(d.Sites) == 0 || d.Sites[0].NewDocs != w.Docs() {
		t.Fatalf("site rows: %+v", d.Sites)
	}
}

// TestWatchResumeMatchesContinuous: a watcher killed and re-created from
// its state directory after every cycle tracks a continuously running one
// byte for byte — repositories and drift reports both.
func TestWatchResumeMatchesContinuous(t *testing.T) {
	siteA, srvA := newSite(t, 8, 11)
	siteB, srvB := newSite(t, 8, 11)
	dir := t.TempDir()

	cont := newWatcher(t, srvA, Options{})
	normalize := func(s, base string) string { return strings.ReplaceAll(s, base, "SITE") }

	for cycle := 1; cycle <= 3; cycle++ {
		if cycle > 1 {
			tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: int64(100 + cycle), Rate: 0.5})
			mutatePages(t, siteA, tm)
			tm = faultinject.NewTemplate(faultinject.TemplateConfig{Seed: int64(100 + cycle), Rate: 0.5})
			mutatePages(t, siteB, tm)
		}
		resA, err := cont.Cycle(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Kill/restart boundary: a brand-new watcher resumes from disk.
		restarted := newWatcher(t, srvB, Options{StateDir: dir})
		if restarted.Cycles() != cycle-1 {
			t.Fatalf("restarted watcher resumed at cycle %d, want %d", restarted.Cycles(), cycle-1)
		}
		resB, err := restarted.Cycle(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := normalize(renderRepo(resB.Repo), srvB.URL),
			normalize(renderRepo(resA.Repo), srvA.URL); got != want {
			t.Fatalf("cycle %d: restarted repository diverges from continuous", cycle)
		}
		ja, _ := json.Marshal(resA.Drift)
		jb, _ := json.Marshal(resB.Drift)
		if normalize(string(jb), strings.TrimPrefix(srvB.URL, "http://")) !=
			normalize(string(ja), strings.TrimPrefix(srvA.URL, "http://")) {
			t.Fatalf("cycle %d: drift reports diverge:\n%s\n%s", cycle, ja, jb)
		}
	}
}

// TestWatchRun drives the Run loop for a fixed cycle count.
func TestWatchRun(t *testing.T) {
	_, srv := newSite(t, 5, 17)
	w := newWatcher(t, srv, Options{})
	var cycles []int
	if err := w.Run(context.Background(), 2, 0, func(r *Result) {
		cycles = append(cycles, r.Cycle)
	}); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 || cycles[0] != 1 || cycles[1] != 2 {
		t.Fatalf("run emitted cycles %v", cycles)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Run(ctx, 5, 0, nil); err != nil {
		t.Fatalf("cancelled run: %v", err)
	}
}
