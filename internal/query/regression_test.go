package query

import (
	"testing"

	"webrev/internal/dom"
	"webrev/internal/pathindex"
)

// TestRootAnchoring pins the anchoring semantics matchSteps documents:
// a query starting with a child step is anchored at the document root,
// while a leading descendant step may bind at any depth. The old
// implementation carried a dead atRoot parameter — anchoring worked only
// because every candidate path is absolute, and nothing pinned it.
func TestRootAnchoring(t *testing.T) {
	// /education/institution names a real subpath, but not from the root:
	// anchored evaluation must reject it.
	if got := mustEval(t, "/education/institution"); len(got) != 0 {
		t.Fatalf("/education/institution matched %d nodes; want 0 (not anchored at root)", len(got))
	}
	// The same location reached by a descendant step matches.
	if got := mustEval(t, "//education/institution"); len(got) != 3 {
		t.Fatalf("//education/institution matched %d nodes; want 3", len(got))
	}
	// Direct matcher-level pin: /a/b must not float to a deeper suffix.
	steps := []Step{{Label: "a"}, {Label: "b"}}
	if matchSteps(steps, "x/a/b") {
		t.Fatal("/a/b matched x/a/b; child steps must anchor at the root")
	}
	if !matchSteps(steps, "a/b") {
		t.Fatal("/a/b failed to match a/b")
	}
	if !matchSteps([]Step{{Label: "b", Descendant: true}}, "x/a/b") {
		t.Fatal("//b failed to match x/a/b")
	}
}

// TestPredicateQuoting pins the balanced-quote grammar: values keep
// embedded quotes, escapes decode, and malformed literals fail to compile
// instead of being silently "repaired" by trimming.
func TestPredicateQuoting(t *testing.T) {
	root := el("r")
	for _, val := range []string{
		"B.S.",   // plain
		`"B.S."`, // value that itself starts and ends with quotes
		"a/b",    // '/' inside a value is not a step separator
		"[x]",    // brackets inside a value are not a predicate
		`a\b`,    // literal backslash
	} {
		root.AppendChild(elv("v", val))
	}
	ix := pathindex.Build([]*dom.Node{root})
	cases := []struct {
		expr string
		want int
	}{
		{`//v[@val="B.S."]`, 1},
		{`//v[@val="\"B.S.\""]`, 1},
		{`//v[@val~"B.S."]`, 2}, // substring hits the plain and quoted values
		{`//v[@val="a/b"]`, 1},
		{`//v[@val="[x]"]`, 1},
		{`//v[@val~"x]"]`, 1},
		{`//v[@val="a\\b"]`, 1},
	}
	for _, c := range cases {
		q, err := Compile(c.expr)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.expr, err)
			continue
		}
		if got := len(q.Evaluate(ix)); got != c.want {
			t.Errorf("%s matched %d; want %d", c.expr, got, c.want)
		}
	}
	malformed := []string{
		`//v[@val=B.S.]`,  // unquoted: the old Trim accepted this silently
		`//v[@val="B.S.]`, // missing closing quote
		`//v[@val=B.S."]`, // missing opening quote
		`//v[@val=""x]`,   // text after closing quote
		`//v[@val="a\x"]`, // unsupported escape
		`//v[@val="a\]`,   // escape swallows the would-be closing quote
		`//v[@val=]`,      // empty literal
		`//v[@val="]`,     // lone quote
	}
	for _, expr := range malformed {
		if _, err := Compile(expr); err == nil {
			t.Errorf("Compile(%q) should fail", expr)
		}
	}
}

// TestCompileEdgeCases is the table-driven compile suite: empty steps,
// trailing slashes, wildcard chains, descendant-at-root, and predicate
// malformations in one place.
func TestCompileEdgeCases(t *testing.T) {
	cases := []struct {
		expr    string
		wantErr bool
		steps   int
	}{
		{"", true, 0},
		{"   ", true, 0},
		{"/", true, 0},
		{"//", true, 0},
		{"resume", true, 0},
		{"/resume/", true, 0},
		{"/resume//", true, 0},
		{"/resume///date", true, 0}, // empty step between separators
		{"/resume", false, 1},
		{"//resume", false, 1},
		{"//*", false, 1}, // lifted: //* is now a supported query
		{"/*", false, 1},
		{"/*/*/*", false, 3},
		{"/resume//*", false, 2},
		{"//a//b//c", false, 3},
		{`/a[@val="x"]`, false, 1},
		{`/a[@val~"x"]`, false, 1},
		{`/a[@val~"x"`, true, 0},
		{`/a[]`, true, 0},
		{`/a[@val]`, true, 0},
		{`[@val="x"]`, true, 0},
	}
	for _, c := range cases {
		q, err := Compile(c.expr)
		if c.wantErr {
			if err == nil {
				t.Errorf("Compile(%q) should fail, got %+v", c.expr, q.Steps)
			}
			continue
		}
		if err != nil {
			t.Errorf("Compile(%q): %v", c.expr, err)
			continue
		}
		if len(q.Steps) != c.steps {
			t.Errorf("Compile(%q) = %d steps; want %d", c.expr, len(q.Steps), c.steps)
		}
	}
}

// TestDescendantWildcard pins //* semantics: every element, at any depth.
func TestDescendantWildcard(t *testing.T) {
	// index() holds 14 elements across its two documents.
	if got := mustEval(t, "//*"); len(got) != 14 {
		t.Fatalf("//* matched %d; want 14", len(got))
	}
	// /resume//* is every element strictly below a root resume.
	if got := mustEval(t, "/resume//*"); len(got) != 12 {
		t.Fatalf("/resume//* matched %d; want 12", len(got))
	}
}

// TestCountMatchesEvaluate pins Count == len(Evaluate) across shapes;
// TestCountDoesNotMaterialize pins the "no result slice" claim with an
// allocation budget.
func TestCountMatchesEvaluate(t *testing.T) {
	ix := index()
	for _, expr := range []string{
		"/resume", "//date", "/resume/*", "//*", `//degree[@val="B.S."]`,
		`//institution[@val~"a"]`, "/nope", "//nope",
	} {
		q, err := Compile(expr)
		if err != nil {
			t.Fatalf("Compile(%q): %v", expr, err)
		}
		if got, want := q.Count(ix), len(q.Evaluate(ix)); got != want {
			t.Errorf("Count(%s) = %d; Evaluate found %d", expr, got, want)
		}
	}
}

func TestCountDoesNotMaterialize(t *testing.T) {
	// A corpus wide enough that materializing results would need many
	// slice growths.
	var docs []*dom.Node
	for d := 0; d < 64; d++ {
		root := el("r")
		for i := 0; i < 32; i++ {
			root.AppendChild(elv("leaf", "v"))
		}
		docs = append(docs, root)
	}
	frozen := pathindex.Build(docs).Freeze()
	q, err := Compile("//leaf")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Count(frozen); got != 64*32 {
		t.Fatalf("count = %d; want %d", got, 64*32)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		q.Count(frozen)
	}); allocs != 0 {
		t.Errorf("Count allocated %.0f objects per run; want 0", allocs)
	}
	// The equality-predicate path must stay allocation-free too.
	qp, err := Compile(`//leaf[@val="v"]`)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		qp.Count(frozen)
	}); allocs != 0 {
		t.Errorf("Count with predicate allocated %.0f objects per run; want 0", allocs)
	}
	// So must the contains path, which reads each posting's stored val.
	qc, err := Compile(`//leaf[@val~"v"]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := qc.Count(frozen); got != 64*32 {
		t.Fatalf("contains count = %d; want %d", got, 64*32)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		qc.Count(frozen)
	}); allocs != 0 {
		t.Errorf("Count with contains predicate allocated %.0f objects per run; want 0", allocs)
	}
}

// TestUnquote covers the literal grammar directly.
func TestUnquote(t *testing.T) {
	good := map[string]string{
		`""`:         "",
		`"x"`:        "x",
		`"\""`:       `"`,
		`"\\"`:       `\`,
		`"a\"b"`:     `a"b`,
		`"[/]"`:      "[/]",
		`"\"B.S.\""`: `"B.S."`,
	}
	for in, want := range good {
		got, err := unquote(in)
		if err != nil {
			t.Errorf("unquote(%s): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("unquote(%s) = %q; want %q", in, got, want)
		}
	}
	for _, in := range []string{``, `"`, `x`, `"x`, `x"`, `"x"y`, `"\x"`, `"\`, `""extra`} {
		if got, err := unquote(in); err == nil {
			t.Errorf("unquote(%s) = %q; want error", in, got)
		}
	}
}

// TestEachEarlyStop pins that a false return stops the stream — the limit
// path of webrevd's query endpoint.
func TestEachEarlyStop(t *testing.T) {
	ix := index()
	q, err := Compile("//*")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	q.Each(ix, func(path string, ref pathindex.Ref) bool {
		if path == "" || ref.Node == nil {
			t.Fatalf("empty visit: path=%q ref=%+v", path, ref)
		}
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop visited %d; want 5", seen)
	}
}
