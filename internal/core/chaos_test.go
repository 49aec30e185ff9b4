package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
)

// chaosSources is streamSources with source names made unique (the corpus
// generator can repeat person names): fault placement, quarantine-store
// entries, and per-key fault budgets are all keyed by source name, so
// chaos tests need distinct keys to count deterministically.
func chaosSources(n int, seed int64) []Source {
	sources := streamSources(n, seed)
	for i := range sources {
		sources[i].Name = fmt.Sprintf("doc-%03d-%s", i, sources[i].Name)
	}
	return sources
}

// chaosConfig is streamConfig plus a stage fault injector.
func chaosConfig(inject *faultinject.Stage, tr obs.Tracer) Config {
	cfg := streamConfig(tr, 4, 8)
	cfg.Inject = inject
	return cfg
}

// quarantinedNames collects the source names of a build's quarantine
// report.
func quarantinedNames(r *Repository) map[string]bool {
	out := make(map[string]bool, len(r.Quarantined))
	for _, rec := range r.Quarantined {
		out[rec.URL] = true
	}
	return out
}

// survivorsOf filters sources down to the ones a chaos build kept.
func survivorsOf(sources []Source, quarantined map[string]bool) []Source {
	var out []Source
	for _, s := range sources {
		if !quarantined[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// TestChaosBuildConvertPanics injects panics into >=10% of conversions and
// checks Build completes, the quarantine report matches the injector's
// tally, and the surviving output is byte-identical to a clean build over
// the surviving subset.
func TestChaosBuildConvertPanics(t *testing.T) {
	sources := chaosSources(60, 21)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   1,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	p, err := New(chaosConfig(inject, nil))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatalf("chaos build failed outright: %v", err)
	}
	if inject.Total() < 6 { // 10% of 60
		t.Fatalf("injector fired %d faults, want >= 6 for a meaningful test", inject.Total())
	}
	if len(repo.Quarantined) != inject.Total() {
		t.Fatalf("quarantined %d documents, injector fired %d", len(repo.Quarantined), inject.Total())
	}
	for _, rec := range repo.Quarantined {
		if rec.Kind != FailPanic || rec.Stage != obs.StageConvert || rec.Stack == "" {
			t.Fatalf("malformed quarantine record: %+v", rec)
		}
	}
	if len(repo.Docs) != len(sources)-len(repo.Quarantined) {
		t.Fatalf("docs %d + quarantined %d != input %d", len(repo.Docs), len(repo.Quarantined), len(sources))
	}

	clean, err := resumePipeline(t).Build(survivorsOf(sources, quarantinedNames(repo)))
	if err != nil {
		t.Fatal(err)
	}
	if renderRepo(repo) != renderRepo(clean) {
		t.Fatal("chaos build's surviving output differs from a clean build over the survivors")
	}
}

// TestChaosBuildStreamConvertPanics is the streaming counterpart: panics
// in the conversion workers quarantine documents without breaking the
// stream, and the surviving output matches a clean batch build over the
// survivors.
func TestChaosBuildStreamConvertPanics(t *testing.T) {
	sources := chaosSources(60, 21)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   1,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	p, err := New(chaosConfig(inject, nil))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.BuildStream(context.Background(), SourceChan(sources))
	if err != nil {
		t.Fatalf("chaos stream build failed outright: %v", err)
	}
	if inject.Total() < 6 {
		t.Fatalf("injector fired %d faults, want >= 6", inject.Total())
	}
	if len(repo.Quarantined) != inject.Total() {
		t.Fatalf("quarantined %d documents, injector fired %d", len(repo.Quarantined), inject.Total())
	}
	clean, err := resumePipeline(t).Build(survivorsOf(sources, quarantinedNames(repo)))
	if err != nil {
		t.Fatal(err)
	}
	if renderRepo(repo) != renderRepo(clean) {
		t.Fatal("chaos stream's surviving output differs from a clean build over the survivors")
	}
}

// TestChaosMapStageFaults injects panics and errors into the conformance
// mapping stage of both build paths: the builds complete, the quarantine
// report is populated with map-stage records, and the repository arrays
// stay aligned after compaction.
func TestChaosMapStageFaults(t *testing.T) {
	sources := chaosSources(40, 11)
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:   3,
			Rate:   0.25,
			Kinds:  []faultinject.StageKind{faultinject.StagePanic, faultinject.StageError},
			Stages: []string{obs.StageMap},
		})
	}
	run := func(name string, build func(p *Pipeline) (*Repository, error)) {
		inject := newInjector()
		p, err := New(chaosConfig(inject, nil))
		if err != nil {
			t.Fatal(err)
		}
		repo, err := build(p)
		if err != nil {
			t.Fatalf("%s failed outright: %v", name, err)
		}
		if inject.Total() < 4 { // 10% of 40
			t.Fatalf("%s: injector fired %d faults, want >= 4", name, inject.Total())
		}
		if len(repo.Quarantined) != inject.Total() {
			t.Fatalf("%s: quarantined %d, injector fired %d", name, len(repo.Quarantined), inject.Total())
		}
		for _, rec := range repo.Quarantined {
			if rec.Stage != obs.StageMap {
				t.Fatalf("%s: unexpected quarantine stage: %+v", name, rec)
			}
		}
		if len(repo.Docs) != len(repo.Conformed) || len(repo.Docs) != len(repo.MapStats) {
			t.Fatalf("%s: arrays misaligned: %d docs, %d conformed, %d stats",
				name, len(repo.Docs), len(repo.Conformed), len(repo.MapStats))
		}
		if len(repo.Docs)+len(repo.Quarantined) != len(sources) {
			t.Fatalf("%s: docs %d + quarantined %d != input %d",
				name, len(repo.Docs), len(repo.Quarantined), len(sources))
		}
	}
	run("Build", func(p *Pipeline) (*Repository, error) { return p.Build(sources) })
	run("BuildStream", func(p *Pipeline) (*Repository, error) {
		return p.BuildStream(context.Background(), SourceChan(sources))
	})
}

// TestChaosErrorBudget checks both sides of the budget: a failure ratio
// over Config.MaxFailureRatio fails the build (returning the partial
// repository), and a negative budget tolerates nothing.
func TestChaosErrorBudget(t *testing.T) {
	sources := chaosSources(20, 5)
	everyDoc := faultinject.StageConfig{
		Seed:   1,
		Rate:   1.0,
		Stages: []string{obs.StageConvert},
	}

	cfg := chaosConfig(faultinject.NewStage(everyDoc), nil)
	cfg.MaxFailureRatio = 0.2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err == nil {
		t.Fatal("build with every document quarantined succeeded")
	}
	if repo == nil || len(repo.Quarantined) != len(sources) {
		t.Fatalf("partial repository not returned with the budget error: %v", repo)
	}

	// One fault under zero tolerance also fails the build.
	oneDoc := everyDoc
	oneDoc.Rate = 0.1
	cfg = chaosConfig(faultinject.NewStage(oneDoc), nil)
	cfg.MaxFailureRatio = -1
	if p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Build(sources); err == nil {
		t.Fatal("zero-tolerance build with a quarantined document succeeded")
	}

	// The same faults under the default budget succeed.
	cfg = chaosConfig(faultinject.NewStage(oneDoc), nil)
	if p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Build(sources); err != nil {
		t.Fatalf("build within the default budget failed: %v", err)
	}
}

// TestChaosDocTimeout injects long delays under a short per-document
// deadline: the stalled documents are abandoned and quarantined as
// timeouts.
func TestChaosDocTimeout(t *testing.T) {
	sources := chaosSources(12, 9)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   5,
		Rate:   0.3,
		Kinds:  []faultinject.StageKind{faultinject.StageDelay},
		Stages: []string{obs.StageConvert},
		Delay:  500 * time.Millisecond,
	})
	cfg := chaosConfig(inject, nil)
	cfg.Limits.DocTimeout = 30 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatalf("build failed outright: %v", err)
	}
	if len(repo.Quarantined) == 0 {
		t.Fatal("no documents quarantined despite injected stalls")
	}
	for _, rec := range repo.Quarantined {
		if rec.Kind != FailTimeout {
			t.Fatalf("stalled document quarantined as %s, want %s", rec.Kind, FailTimeout)
		}
	}
}

// TestChaosQuarantineStore checks quarantined documents persist to the
// configured directory with their original HTML, ready for replay.
func TestChaosQuarantineStore(t *testing.T) {
	sources := chaosSources(30, 13)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   2,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	cfg := chaosConfig(inject, nil)
	cfg.QuarantineDir = t.TempDir()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Quarantined) == 0 {
		t.Fatal("no documents quarantined; test needs faults to be meaningful")
	}
	store, err := OpenQuarantineStore(cfg.QuarantineDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(repo.Quarantined) {
		t.Fatalf("store holds %d entries, build quarantined %d", len(entries), len(repo.Quarantined))
	}
	byName := make(map[string]string, len(sources))
	for _, s := range sources {
		byName[s.Name] = s.HTML
	}
	for _, e := range entries {
		html, err := store.HTML(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if html != byName[e.Record.URL] {
			t.Fatalf("stored HTML for %s differs from the original input", e.Record.URL)
		}
	}
}

// TestBuildStreamCheckpointResume is the crash-recovery golden test: a
// streaming build killed mid-stream and then resumed from its checkpoint
// produces output byte-identical to an uninterrupted run.
func TestBuildStreamCheckpointResume(t *testing.T) {
	sources := chaosSources(40, 27)
	dir := t.TempDir()

	uninterrupted, err := resumePipeline(t).BuildStream(context.Background(), SourceChan(sources))
	if err != nil {
		t.Fatal(err)
	}
	want := renderRepo(uninterrupted)

	newPipeline := func(tr obs.Tracer) *Pipeline {
		cfg := streamConfig(tr, 4, 8)
		cfg.CheckpointDir = dir
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Kill the first run mid-stream: the producer cancels after feeding
	// half the corpus and abandons the channel.
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Source)
	go func() {
		for i, s := range sources {
			if i == 20 {
				cancel()
				return
			}
			in <- s
		}
	}()
	if _, err := newPipeline(nil).BuildStream(ctx, in); err != context.Canceled {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "state.json")); err != nil {
		t.Fatalf("killed run left no checkpoint: %v", err)
	}

	// Resume over the full source stream: the checkpointed prefix is
	// restored, the rest is processed, and the result matches the
	// uninterrupted run byte for byte.
	coll := obs.NewCollector()
	repo, err := newPipeline(coll).BuildStream(context.Background(), SourceChan(sources))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRepo(repo); got != want {
		t.Fatal("resumed build differs from the uninterrupted run")
	}
	if restored := coll.Counter(obs.CtrDocsRestored); restored == 0 {
		t.Fatal("resumed build restored no documents from the checkpoint")
	}
	if coll.Counter(obs.CtrCheckpoints) == 0 {
		t.Fatal("resumed build wrote no checkpoint snapshots")
	}
	if _, err := os.Stat(filepath.Join(dir, "state.json")); !os.IsNotExist(err) {
		t.Fatalf("completed build left its checkpoint behind (err=%v)", err)
	}

	// With the checkpoint cleared, a rerun starts fresh and still matches.
	rerun, err := newPipeline(nil).BuildStream(context.Background(), SourceChan(sources))
	if err != nil {
		t.Fatal(err)
	}
	if renderRepo(rerun) != want {
		t.Fatal("fresh rerun after checkpoint clear differs from the uninterrupted run")
	}
}

// TestBuildStreamCheckpointWithFaults combines the two robustness layers:
// a killed-and-resumed streaming build under injected convert panics still
// matches a clean build over the surviving subset, and the quarantine log
// survives the resume.
func TestBuildStreamCheckpointWithFaults(t *testing.T) {
	sources := chaosSources(40, 31)
	dir := t.TempDir()
	// Permanent faults: the same documents must fail again after resume.
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:         17,
			Rate:         0.15,
			Stages:       []string{obs.StageConvert},
			FaultsPerKey: -1,
		})
	}
	newPipeline := func(inject *faultinject.Stage) *Pipeline {
		cfg := chaosConfig(inject, nil)
		cfg.CheckpointDir = dir
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Source)
	go func() {
		for i, s := range sources {
			if i == 20 {
				cancel()
				return
			}
			in <- s
		}
	}()
	if _, err := newPipeline(newInjector()).BuildStream(ctx, in); err != context.Canceled {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}

	repo, err := newPipeline(newInjector()).BuildStream(context.Background(), SourceChan(sources))
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Quarantined) == 0 {
		t.Fatal("no quarantine records after resume")
	}
	if len(repo.Docs)+len(repo.Quarantined) != len(sources) {
		t.Fatalf("docs %d + quarantined %d != input %d",
			len(repo.Docs), len(repo.Quarantined), len(sources))
	}
	clean, err := resumePipeline(t).Build(survivorsOf(sources, quarantinedNames(repo)))
	if err != nil {
		t.Fatal(err)
	}
	if renderRepo(repo) != renderRepo(clean) {
		t.Fatal("resumed chaos build differs from a clean build over the survivors")
	}
}
