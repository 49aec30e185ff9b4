// Benchmarks for the streaming incremental build (see ARCHITECTURE.md,
// streaming path): batch Pipeline.Build vs Pipeline.BuildStream over the
// same materialized corpus, across in-flight caps. Both paths produce
// byte-identical repositories (pinned by TestBuildStreamMatchesBuild and
// the golden stream tests); these benchmarks measure what the bounded
// pipeline costs — or saves — in time and allocations. `make check` runs
// them once in -short mode; `make bench` produces the full numbers, and
// `bash perfbench/run.sh --trace 1` the per-layer ones.
package webrev_test

import (
	"context"
	"testing"

	"webrev"
	"webrev/internal/corpus"
)

// benchStreamDocs sizes the benchmark corpus: small under -short (the
// `make check` smoke leg), the E9 corpus size otherwise.
func benchStreamDocs(b *testing.B) int {
	if testing.Short() {
		return 20
	}
	return 100
}

func benchStreamSources(n int) []webrev.Source {
	g := corpus.New(corpus.Options{Seed: 1})
	var out []webrev.Source
	for _, r := range g.Corpus(n) {
		out = append(out, webrev.Source{Name: r.Name, HTML: r.HTML})
	}
	return out
}

// BenchmarkBatchBuild is the baseline: the batch pipeline over a fully
// materialized corpus.
func BenchmarkBatchBuild(b *testing.B) {
	sources := benchStreamSources(benchStreamDocs(b))
	p, err := webrev.NewResumePipeline()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Build(sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamBuild runs the streaming build over the same corpus at
// several in-flight caps; the reported peak-inflight metric confirms the
// bounded-memory guarantee held while the clock ran.
func BenchmarkStreamBuild(b *testing.B) {
	sources := benchStreamSources(benchStreamDocs(b))
	for _, cap := range []int{4, 16, 0} {
		name := "cap=default"
		if cap > 0 {
			name = "cap=" + itoa(cap)
		}
		b.Run(name, func(b *testing.B) {
			coll := webrev.NewCollector()
			p, err := webrev.New(webrev.Config{
				Concepts:    webrev.ResumeConcepts(),
				Constraints: webrev.ResumeConstraints(),
				RootName:    "resume",
				MaxInFlight: cap,
				Tracer:      coll,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.BuildStream(context.Background(), webrev.SourceChan(sources)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			snap := coll.Snapshot()
			b.ReportMetric(float64(snap.Gauges[webrev.GaugeStreamInFlightPeak]), "peak-inflight")
			b.ReportMetric(float64(snap.Gauges[webrev.GaugeStreamShards]), "shards")
		})
	}
}
