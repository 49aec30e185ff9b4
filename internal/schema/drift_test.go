package schema_test

import (
	"reflect"
	"strings"
	"testing"

	"webrev/internal/schema"
)

func TestDiffSupports(t *testing.T) {
	old := map[string]float64{"r": 1, "r/a": 0.9, "r/b": 0.5, "r/c": 0.45}
	cur := map[string]float64{"r": 1, "r/a": 0.6, "r/c": 0.5, "r/d": 0.8}
	added, vanished, shifted := schema.DiffSupports(old, cur, 0.1)
	if want := []schema.PathSupport{{Path: "r/d", Support: 0.8}}; !reflect.DeepEqual(added, want) {
		t.Errorf("added = %+v, want %+v", added, want)
	}
	if want := []schema.PathSupport{{Path: "r/b", Support: 0.5}}; !reflect.DeepEqual(vanished, want) {
		t.Errorf("vanished = %+v, want %+v", vanished, want)
	}
	// r/a moved 0.3 (reported); r/c moved 0.05 (below the minimum shift);
	// r stayed put.
	if want := []schema.PathShift{{Path: "r/a", OldSupport: 0.9, NewSupport: 0.6}}; !reflect.DeepEqual(shifted, want) {
		t.Errorf("shifted = %+v, want %+v", shifted, want)
	}
}

func TestDiffSupportsStable(t *testing.T) {
	m := map[string]float64{"r": 1, "r/a": 0.5}
	added, vanished, shifted := schema.DiffSupports(m, m, 0)
	if len(added)+len(vanished)+len(shifted) != 0 {
		t.Fatalf("identical maps reported drift: +%v -%v ~%v", added, vanished, shifted)
	}
}

// TestDiffDTDTextIgnoresPadding: Render pads element names to the longest
// name in each DTD, so adding an unrelated long element re-pads every
// line. The diff must see through that.
func TestDiffDTDTextIgnoresPadding(t *testing.T) {
	oldText := "<!ELEMENT resume  ((#PCDATA), contact+)>\n" +
		"<!ELEMENT contact (#PCDATA)>\n" +
		"<!ATTLIST resume  val CDATA #IMPLIED>\n"
	newText := "<!ELEMENT resume        ((#PCDATA), contact+, publications)>\n" +
		"<!ELEMENT contact       (#PCDATA)>\n" +
		"<!ELEMENT publications  (#PCDATA)>\n"
	d := schema.DiffDTDText(oldText, newText)
	if want := []string{"<!ELEMENT publications (#PCDATA)>"}; !reflect.DeepEqual(d.Added, want) {
		t.Errorf("added = %v, want %v", d.Added, want)
	}
	if len(d.Removed) != 0 {
		t.Errorf("removed = %v, want none", d.Removed)
	}
	want := []schema.DTDChange{{
		Element: "resume",
		Old:     "<!ELEMENT resume ((#PCDATA), contact+)>",
		New:     "<!ELEMENT resume ((#PCDATA), contact+, publications)>",
	}}
	if !reflect.DeepEqual(d.Changed, want) {
		t.Errorf("changed = %+v, want %+v", d.Changed, want)
	}
	if d.Empty() {
		t.Error("diff with changes reported Empty")
	}
	if same := schema.DiffDTDText(newText, newText); !same.Empty() {
		t.Errorf("self-diff not empty: %+v", same)
	}
}

func TestDriftSummaryAndShifted(t *testing.T) {
	d := &schema.Drift{Version: schema.DriftVersion, Cycle: 3,
		Docs: schema.DocDelta{Unchanged: 10, Changed: 2, New: 1, Vanished: 1}}
	if d.Shifted() {
		t.Error("empty diff reported as shifted")
	}
	if s := d.Summary(); !strings.Contains(s, "schema stable") || !strings.Contains(s, "cycle 3") {
		t.Errorf("stable summary = %q", s)
	}
	d.NewPaths = []schema.PathSupport{{Path: "r/x", Support: 0.7}}
	d.DTD.Added = []string{"<!ELEMENT x (#PCDATA)>"}
	if !d.Shifted() {
		t.Error("diff with new paths not reported as shifted")
	}
	if s := d.Summary(); !strings.Contains(s, "schema drift") {
		t.Errorf("drift summary = %q", s)
	}
}

// TestSupportMap checks the flattening against the schema's own Paths().
func TestSupportMap(t *testing.T) {
	docs := convertedCorpus(t, 20, 3)
	s := (&schema.Miner{SupThreshold: 0.3, RatioThreshold: 0.1}).Discover(docs)
	m := s.SupportMap()
	paths := s.Paths()
	if len(m) != len(paths) {
		t.Fatalf("SupportMap has %d entries, schema has %d paths", len(m), len(paths))
	}
	for _, p := range paths {
		sup, ok := m[p]
		if !ok {
			t.Fatalf("path %q missing from SupportMap", p)
		}
		if sup <= 0 || sup > 1 {
			t.Fatalf("path %q support out of range: %v", p, sup)
		}
	}
	if (*schema.Schema)(nil).SupportMap() == nil {
		t.Error("nil schema SupportMap returned nil map")
	}
}
