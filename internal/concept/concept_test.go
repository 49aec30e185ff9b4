package concept

import (
	"strings"
	"testing"
	"testing/quick"
)

func testSet(t *testing.T) *Set {
	t.Helper()
	return MustSet(
		Concept{Name: "institution", Instances: []string{"University", "College"}},
		Concept{Name: "degree", Instances: []string{"B.S.", "M.S.", "Ph.D.", "bachelor of science"}},
		Concept{Name: "date", Instances: []string{"January", "June", "1996"}},
		Concept{Name: "gpa", Instances: []string{"GPA"}},
	)
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(Concept{Name: ""}); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := NewSet(Concept{Name: "a"}, Concept{Name: "a"}); err == nil {
		t.Fatal("duplicate name should error")
	}
	s, err := NewSet(Concept{Name: "x", Instances: []string{"X", "x", " x "}})
	if err != nil {
		t.Fatal(err)
	}
	if s.InstanceCount() != 1 {
		t.Fatalf("dedup failed: %d instances", s.InstanceCount())
	}
}

func TestSetAccessors(t *testing.T) {
	s := testSet(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := strings.Join(s.Names(), ","); got != "institution,degree,date,gpa" {
		t.Fatalf("Names = %q", got)
	}
	if !s.Has("degree") || s.Has("nope") {
		t.Fatal("Has broken")
	}
	if s.Get("degree") == nil || s.Get("nope") != nil {
		t.Fatal("Get broken")
	}
}

func TestFindAllPaperSentence(t *testing.T) {
	s := testSet(t)
	// The paper's running example topic sentence (§2.3.1).
	text := "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0"
	ms := s.FindAll(text)
	var got []string
	for _, m := range ms {
		got = append(got, m.Concept)
	}
	want := "institution degree date date gpa"
	if strings.Join(got, " ") != want {
		t.Fatalf("concepts = %v, want %s", got, want)
	}
	// Offsets must be sane and non-overlapping.
	for i := 1; i < len(ms); i++ {
		if ms[i].Start < ms[i-1].End {
			t.Fatalf("overlap: %+v", ms)
		}
	}
}

func TestFindAllCaseInsensitive(t *testing.T) {
	s := testSet(t)
	if ms := s.FindAll("UNIVERSITY of somewhere"); len(ms) == 0 {
		t.Fatal("uppercase not matched")
	}
	if ms := s.FindAll("university"); len(ms) == 0 {
		t.Fatal("lowercase not matched")
	}
}

func TestFindAllWordBoundary(t *testing.T) {
	s := testSet(t)
	if ms := s.FindAll("multiversity"); len(ms) != 0 {
		t.Fatalf("substring match should be rejected: %+v", ms)
	}
	if ms := s.FindAll("the University."); len(ms) != 1 {
		t.Fatalf("punctuation boundary should match: %+v", ms)
	}
}

func TestFindAllLongestWins(t *testing.T) {
	s := MustSet(
		Concept{Name: "degree", Instances: []string{"bachelor of science"}},
		Concept{Name: "major", Instances: []string{"science"}},
	)
	ms := s.FindAll("bachelor of science")
	if len(ms) != 1 || ms[0].Concept != "degree" {
		t.Fatalf("longest-match failed: %+v", ms)
	}
}

func TestFindAllConceptNameItself(t *testing.T) {
	s := testSet(t)
	ms := s.FindAll("Degree information")
	if len(ms) != 1 || ms[0].Concept != "degree" {
		t.Fatalf("concept name should be implicit instance: %+v", ms)
	}
}

func TestFirstNoMatch(t *testing.T) {
	s := testSet(t)
	if ms := s.FindAll("nothing relevant here"); len(ms) != 0 {
		t.Fatalf("unexpected match: %+v", ms)
	}
}

func TestPropertyMatchesWithinBoundsAndOrdered(t *testing.T) {
	s := testSet(t)
	words := []string{"University", "B.S.", "June", "GPA", "xyz", ",", "of", "hello", "1996"}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(words[int(p)%len(words)])
			b.WriteByte(' ')
		}
		text := b.String()
		ms := s.FindAll(text)
		for i, m := range ms {
			if m.Start < 0 || m.End > len(text) || m.Start >= m.End {
				return false
			}
			if i > 0 && ms[i-1].End > m.Start {
				return false
			}
			if !strings.EqualFold(text[m.Start:m.End], m.Instance) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFindAllOffsetsSurviveLoweringLengthChanges(t *testing.T) {
	// Lowercasing can change byte length: invalid UTF-8 bytes become
	// U+FFFD (3 bytes each), and some case pairs have different encoded
	// sizes (e.g. U+212A KELVIN SIGN → 'k'). Match offsets must refer to
	// the original text, not the lowered copy (regression: the fuzzer
	// found a slice-bounds panic in conversion on exactly this input
	// shape).
	s := testSet(t)
	for _, text := range []string{
		"GPA \xd7\xd7\xd7\xd7\xd7\xd7GPA",
		"K İ GPA",                    // Kelvin sign (shrinks) and dotted capital I (grows)
		"\xffGPA\xff University\xe0", // invalid bytes hugging real instances
	} {
		ms := s.FindAll(text)
		if len(ms) == 0 {
			t.Fatalf("FindAll(%q) found nothing", text)
		}
		for _, m := range ms {
			if m.Start < 0 || m.End > len(text) || m.Start >= m.End {
				t.Fatalf("FindAll(%q): match %+v out of bounds", text, m)
			}
			if got := strings.ToLower(text[m.Start:m.End]); got != m.Instance {
				t.Fatalf("FindAll(%q): offsets select %q, want instance %q", text, got, m.Instance)
			}
		}
	}
}

func TestResumeVocabularyFigures(t *testing.T) {
	cs := ResumeConcepts()
	if len(cs) != 24 {
		t.Fatalf("resume concepts = %d, want 24 (paper §4)", len(cs))
	}
	titles, contents := 0, 0
	for _, c := range cs {
		switch c.Role {
		case RoleTitle:
			titles++
		case RoleContent:
			contents++
		}
	}
	if titles != 11 || contents != 13 {
		t.Fatalf("roles = %d title / %d content, want 11/13 (paper §4.2)", titles, contents)
	}
	s := ResumeSet()
	if got := s.InstanceCount(); got != 233 {
		t.Fatalf("instances = %d, want 233 (paper §4)", got)
	}
}

func BenchmarkFindAllResume(b *testing.B) {
	s := ResumeSet()
	text := "University of California at Davis, B.S.(Computer Science), June 1996, GPA 3.8/4.0"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.FindAll(text)
	}
}
