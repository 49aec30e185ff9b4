package mapping

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"webrev/internal/dom"
	"webrev/internal/dtd"
)

func TestConformScriptRecordsOperations(t *testing.T) {
	d := resumeDTD(t)
	junk := el("hobby")
	junk.SetVal("sailing")
	doc := el("resume",
		el("education", el("date"), el("degree")), // wrong order
		junk,                         // undeclared
		el("section", el("contact")), // wrapped
	)
	out, script := ConformScript(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("invalid output: %v", d.Validate(out))
	}
	text := script.String()
	for _, want := range []string{"delete", "unwrap", "reorder"} {
		if !strings.Contains(text, want) {
			t.Fatalf("script missing %q:\n%s", want, text)
		}
	}
	for _, op := range script {
		if op.Path == "" || op.Detail == "" {
			t.Fatalf("incomplete op: %+v", op)
		}
	}
}

// TestConformScriptPinned pins ConformScript's exact output — every op's
// kind, path and detail, in order, and the conformed tree — on a document
// needing every operation kind: root rename, delete, unwrap, reorder at
// two levels, plain merge and insert, group merge and insert; and on
// empty input, which creates the root.
func TestConformScriptPinned(t *testing.T) {
	d, err := dtdParse(`<!ELEMENT resume ((#PCDATA), contact, (name, phone), education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree, date)>
<!ELEMENT degree (#PCDATA)>
<!ELEMENT date (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	val := func(n *dom.Node, v string) *dom.Node { n.SetVal(v); return n }
	doc := el("cv",
		el("education", val(el("date"), "1998"), val(el("degree"), "M.S.")),
		val(el("name"), "Jane"),
		val(el("contact"), "a@x"),
		val(el("hobby"), "sailing"),
		el("section", val(el("contact"), "b@y")),
		val(el("name"), "Doe"),
		el("education", val(el("date"), "2001")),
		dom.NewText(" open to relocation "),
	)
	cases := []struct {
		doc  *dom.Node
		tree string
		want Script
	}{
		{doc,
			`(resume val="sailing open to relocation" (contact val="a@x b@y") (name val="Jane Doe") (phone)` +
				` (education (degree val="M.S.") (date val="1998")) (education (degree) (date val="2001")))`,
			Script{
				{OpRename, "/cv", "root cv -> resume"},
				{OpDelete, "/resume", "undeclared <hobby> removed, val folded"},
				{OpUnwrap, "/resume", "undeclared container <section> spliced up"},
				{OpReorder, "/resume", "children reordered to content-model order"},
				{OpMerge, "/resume", "surplus <contact> merged into first occurrence"},
				{OpMerge, "/resume", "surplus <name> merged into first group tuple"},
				{OpInsert, "/resume", "group member <phone> inserted to complete tuple 1"},
				{OpReorder, "/resume/education", "children reordered to content-model order"},
				{OpInsert, "/resume/education", "required <degree> inserted"},
			}},
		{dom.NewDocument(),
			`(resume (contact) (name) (phone) (education (degree) (date)))`,
			Script{
				{OpInsert, "/", "empty input; created root resume"},
				{OpInsert, "/resume", "required <contact> inserted"},
				{OpInsert, "/resume", "group member <name> inserted to complete tuple 1"},
				{OpInsert, "/resume", "group member <phone> inserted to complete tuple 1"},
				{OpInsert, "/resume", "required <education> inserted"},
				{OpInsert, "/resume/education", "required <degree> inserted"},
				{OpInsert, "/resume/education", "required <date> inserted"},
			}},
	}
	for i, tc := range cases {
		out, script := ConformScript(tc.doc, d)
		if got := out.String(); got != tc.tree {
			t.Errorf("case %d: tree\n got %s\nwant %s", i, got, tc.tree)
		}
		if len(script) != len(tc.want) {
			t.Fatalf("case %d: %d ops, want %d:\n%s", i, len(script), len(tc.want), script)
		}
		for j, op := range script {
			if op != tc.want[j] {
				t.Errorf("case %d op %d: got %v, want %v", i, j, op, tc.want[j])
			}
		}
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpRename, OpInsert, OpDelete, OpMerge, OpReorder, OpUnwrap}
	names := []string{"rename", "insert", "delete", "merge", "reorder", "unwrap"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Fatalf("kind %d = %q", i, k.String())
		}
	}
	if OpKind(99).String() != "?" {
		t.Fatal("unknown kind")
	}
}

func TestScriptStatsMatchesConform(t *testing.T) {
	// ConformScript must produce the same tree and equivalent stats as
	// Conform on arbitrary inputs: recording the script must not change
	// the transformation.
	d := resumeDTD(t)
	tags := []string{"resume", "contact", "education", "degree", "date", "junk", "wrap"}
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		root := el("resume")
		nodes := []*dom.Node{root}
		for i := 0; i < int(size%20); i++ {
			p := nodes[r.Intn(len(nodes))]
			c := el(tags[r.Intn(len(tags))])
			if r.Intn(3) == 0 {
				c.SetVal("v")
			}
			p.AppendChild(c)
			nodes = append(nodes, c)
		}
		out1, stats := Conform(root, d)
		out2, script := ConformScript(root, d)
		return out1.Equal(out2) && script.Stats() == stats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConformGroupParticles(t *testing.T) {
	// A DTD with (institution, degree)+ under education: Conform must
	// complete broken tuples.
	src := `<!ELEMENT resume ((#PCDATA), education)>
<!ELEMENT education ((#PCDATA), (institution, degree)+)>
<!ELEMENT institution (#PCDATA)>
<!ELEMENT degree (#PCDATA)>`
	d, err := dtdParse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple with a missing degree and a surplus lone institution.
	doc := el("resume", el("education",
		el("institution"), el("degree"), el("institution"),
	))
	out, script := ConformScript(doc, d)
	if !d.Conforms(out) {
		t.Fatalf("group conformance failed: %v\n%s", d.Validate(out), script.String())
	}
	if script.Stats().Inserted != 1 {
		t.Fatalf("expected one tuple-completing insert:\n%s", script.String())
	}
	// Empty education gets one full placeholder tuple.
	out2, _ := ConformScript(el("resume", el("education")), d)
	if !d.Conforms(out2) {
		t.Fatalf("empty group conformance failed: %v", d.Validate(out2))
	}
}

func TestConformScriptRenameAndEmptyInput(t *testing.T) {
	d := resumeDTD(t)
	out, script := ConformScript(el("cv"), d)
	if out.Tag != "resume" {
		t.Fatalf("root = %s", out.Tag)
	}
	found := false
	for _, op := range script {
		if op.Kind == OpRename {
			found = true
		}
	}
	if !found {
		t.Fatalf("rename not recorded:\n%s", script.String())
	}
	// Document node with no element at all.
	docNode := dom.NewDocument()
	out2, script2 := ConformScript(docNode, d)
	if out2.Tag != "resume" || len(script2) == 0 {
		t.Fatalf("empty input handling: %s / %d ops", out2.Tag, len(script2))
	}
}

// dtdParse is a local alias to keep the mapping tests free of a direct
// dependency cycle concern in imports.
func dtdParse(src string) (*dtd.DTD, error) { return dtd.Parse(src) }
