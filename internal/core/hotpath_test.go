package core

import (
	"reflect"
	"testing"

	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// TestDiscoverSchemaShardInvariance is the golden-determinism proof at the
// pipeline seam: folding contiguous shard ranges into separate
// accumulators, merging them and mining the result through MineStats — the
// split every sharded build makes — must produce a schema, and a derived
// DTD rendering, byte-identical to the serial fold of DiscoverSchema.
func TestDiscoverSchemaShardInvariance(t *testing.T) {
	p := tracedPipeline(t, nil, 0)
	docs := p.ConvertAll(corpusSources(t, 16, 12345))
	serial := p.DiscoverSchema(docs)
	want := dtd.FromSchema(serial, p.cfg.DTD).Render()

	for _, shards := range []int{2, 3, 8} {
		merged := schema.NewAccumulator(0)
		for k := 0; k < shards; k++ {
			start, end := shardRange(len(docs), shards, k)
			acc := schema.NewAccumulator(0)
			for i := start; i < end; i++ {
				acc.Add(i, p.ExtractPaths(docs[i]))
			}
			if err := merged.Merge(acc); err != nil {
				t.Fatal(err)
			}
		}
		got := p.MineStats(merged)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("%d shards: merged schema diverged from serial fold:\n%s\nvs\n%s", shards, got, serial)
		}
		if dtd.FromSchema(got, p.cfg.DTD).Render() != want {
			t.Fatalf("%d shards: derived DTD rendering differs from serial mining", shards)
		}
	}
}

// TestConformPrecompileInvariance checks the compiled-index memo cannot
// change mapping output: conforming against a cold DTD (index built inside
// the call) and a precompiled one yields byte-identical XML and equal
// stats for every document.
func TestConformPrecompileInvariance(t *testing.T) {
	p := tracedPipeline(t, nil, 0)
	docs := p.ConvertAll(corpusSources(t, 10, 777))
	s := p.DiscoverSchema(docs)

	cold := dtd.FromSchema(s, p.cfg.DTD)
	warm := dtd.FromSchema(s, p.cfg.DTD)
	mapping.Precompile(warm)
	for i, d := range docs {
		outCold, statsCold := mapping.Conform(d.XML, cold)
		outWarm, statsWarm := mapping.Conform(d.XML, warm)
		if statsCold != statsWarm {
			t.Fatalf("doc %d: stats differ cold %+v warm %+v", i, statsCold, statsWarm)
		}
		if xmlout.Marshal(outCold) != xmlout.Marshal(outWarm) {
			t.Fatalf("doc %d: conformed XML differs between cold and precompiled DTD", i)
		}
	}
}
