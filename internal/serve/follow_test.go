package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webrev/internal/repository"
	"webrev/internal/xmlout"
)

// TestFollowInstallsHealsAndRecovers walks the whole follow-mode
// lifecycle against a real checkpoint directory: pending until the source
// exists, ready after the first valid checkpoint, unharmed by a corrupt
// rewrite, and swapped forward when the source is repaired.
func TestFollowInstallsHealsAndRecovers(t *testing.T) {
	dir := t.TempDir() // exists but empty: the first loads must fail
	s := NewServer(nil, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- s.Follow(ctx, FollowOptions{
			Load:        func() (*repository.Repository, error) { return repository.Load(dir) },
			Fingerprint: func() (string, error) { return DirFingerprint(dir) },
			Interval:    5 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
		})
	}()

	// Empty source: the server stays pending while rejections accumulate.
	waitFor(t, 2*time.Second, "rejected reloads from the empty source", func() bool {
		return s.Stats().ReloadRejected >= 1
	})
	if s.Ready() {
		t.Fatal("server became ready with no checkpoint on disk")
	}

	// First valid checkpoint appears: the pending server flips ready.
	if err := testRepo(t, 3, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the first snapshot to install", s.Ready)
	if st := s.Stats(); st.Gen != 1 || st.Docs != 3 {
		t.Fatalf("after first install: gen=%d docs=%d, want gen 1 docs 3", st.Gen, st.Docs)
	}

	// Corrupt rewrite (garbage DTD): fingerprint changes, the load is
	// rejected, and the last good generation keeps serving.
	rejectedBefore := s.Stats().ReloadRejected
	if err := os.WriteFile(filepath.Join(dir, "schema.dtd"), []byte("<!NOT A DTD"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the corrupt rewrite to be rejected", func() bool {
		return s.Stats().ReloadRejected > rejectedBefore
	})
	if st := s.Stats(); !st.Ready || st.Gen != 1 || st.Docs != 3 {
		t.Fatalf("after corrupt rewrite: ready=%v gen=%d docs=%d, want the retained gen 1", st.Ready, st.Gen, st.Docs)
	}
	if s.LastReloadError() == "" {
		t.Fatal("corrupt rewrite left no surfaced reload error")
	}

	// Repair with a bigger repository: follow installs gen 2 and clears
	// the surfaced error.
	if err := testRepo(t, 5, 100).Save(dir); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the repaired checkpoint to install", func() bool {
		st := s.Stats()
		return st.Gen == 2 && st.Docs == 5
	})
	if got := s.LastReloadError(); got != "" {
		t.Fatalf("reload error still surfaced after recovery: %q", got)
	}

	// Healthy and unchanged: the fingerprint short-circuits, so neither
	// swaps nor rejections move.
	st0 := s.Stats()
	time.Sleep(50 * time.Millisecond)
	if st := s.Stats(); st.Swaps != st0.Swaps || st.ReloadRejected != st0.ReloadRejected {
		t.Fatalf("idle follow kept working: swaps %d->%d rejected %d->%d",
			st0.Swaps, st.Swaps, st0.ReloadRejected, st.ReloadRejected)
	}

	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Follow returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Follow did not return after cancel")
	}
}

// TestFollowRequiresLoad asserts the option contract.
func TestFollowRequiresLoad(t *testing.T) {
	s := NewServer(nil, Options{})
	if err := s.Follow(context.Background(), FollowOptions{}); err == nil {
		t.Fatal("Follow accepted a nil Load")
	}
}

// TestDirFingerprint asserts stability on an untouched repository and on
// a Save of the same content, and sensitivity to any index change.
func TestDirFingerprint(t *testing.T) {
	dir := t.TempDir()
	if err := testRepo(t, 3, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	fp1, err := DirFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := testRepo(t, 3, 0).Save(dir); err != nil {
		t.Fatal(err)
	}
	fp2, err := DirFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint unstable across a Save of the same repository: %s vs %s", fp1, fp2)
	}

	// A torn index append changes the fingerprint.
	f, err := os.OpenFile(filepath.Join(dir, "index.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"name":`)
	f.Close()
	fp3, err := DirFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("fingerprint blind to an index change")
	}

	if _, err := DirFingerprint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("fingerprint of a missing directory did not error")
	}
}

// TestFollowNeverMixesGenerations rewrites the followed directory with two
// alternating generations, whose documents carry distinct names and
// values, while Follow polls every millisecond. Every installed snapshot
// must hold exactly one generation: its names, its size and its
// documents' values agree.
func TestFollowNeverMixesGenerations(t *testing.T) {
	gens := map[string]*repository.Repository{"a": genRepo(t, "a", 4), "b": genRepo(t, "b", 6)}
	dir := t.TempDir()
	if err := gens["a"].Save(dir); err != nil {
		t.Fatal(err)
	}
	s := NewServer(nil, Options{})
	var installs atomic.Int64
	mixed := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- s.Follow(ctx, FollowOptions{
			Load:        func() (*repository.Repository, error) { return repository.Load(dir) },
			Fingerprint: func() (string, error) { return DirFingerprint(dir) },
			Interval:    time.Millisecond,
			MaxBackoff:  time.Millisecond,
			OnSwap: func(uint64, string) {
				installs.Add(1)
				repo := s.Snapshot().Repo()
				tag, _, _ := strings.Cut(repo.Names()[0], "-")
				for i, name := range repo.Names() {
					if !strings.HasPrefix(name, tag+"-") || gens[tag] == nil || repo.Len() != gens[tag].Len() ||
						!strings.Contains(xmlout.Marshal(repo.Doc(i)), `"`+tag+`-person"`) {
						select {
						case mixed <- fmt.Errorf("snapshot %v mixes generations at document %d", repo.Names(), i):
						default:
						}
						return
					}
				}
			},
		})
	}()
	for i := 0; i < 200; i++ {
		if err := gens[[]string{"b", "a"}[i%2]].Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	// The last Save wrote generation a; follow settles on it.
	waitFor(t, 5*time.Second, "generation a to install", func() bool {
		ix := s.Snapshot()
		return ix != nil && ix.Repo().Names()[0] == "a-000"
	})
	cancel()
	<-done
	select {
	case err := <-mixed:
		t.Fatal(err)
	default:
	}
	t.Logf("%d installs, %d rejected reloads over 200 rewrites", installs.Load(), s.Stats().ReloadRejected)
}

// genRepo builds an n-document generation whose names and values carry
// tag.
func genRepo(t *testing.T, tag string, n int) *repository.Repository {
	t.Helper()
	r := repository.New(testDTD())
	for i := 0; i < n; i++ {
		doc := el("resume", elv("contact", tag+"-person"),
			el("education", elv("institution", "UC "+tag), elv("degree", "B.S.")))
		if err := r.Add(fmt.Sprintf("%s-%03d", tag, i), doc); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestTrySwapRejectsUndecodableDocument: a disk-backed candidate whose
// blob no longer decodes is a rejected reload, not a panic, and the
// serving generation stays.
func TestTrySwapRejectsUndecodableDocument(t *testing.T) {
	dir := t.TempDir()
	store, err := repository.CreateDiskStore(dir, repository.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.Append(fmt.Sprintf("doc-%d", i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := repository.SaveDTDFile(dir, testDTD()); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "segment.blob")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, []byte(strings.Repeat("x", len(data))), 0o644); err != nil {
		t.Fatal(err)
	}
	candidate, err := repository.LoadDisk(dir, repository.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer candidate.Store().Close()

	s := NewServer(testRepo(t, 2, 0), Options{})
	if _, err := s.TrySwap(candidate); err == nil {
		t.Fatal("TrySwap installed a snapshot whose documents do not decode")
	}
	if st := s.Stats(); st.Gen != 1 || st.Docs != 2 || st.ReloadRejected != 1 {
		t.Fatalf("after the rejected swap: gen=%d docs=%d rejected=%d, want gen 1, 2 docs, 1 rejected",
			st.Gen, st.Docs, st.ReloadRejected)
	}
}

// TestBackoffDoubling pins the failure-backoff schedule.
func TestBackoffDoubling(t *testing.T) {
	base, max := 10*time.Millisecond, time.Second
	cases := map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		5: 160 * time.Millisecond,
		8: time.Second, // 1280ms capped
	}
	for n, want := range cases {
		if got := backoff(base, n, max); got != want {
			t.Errorf("backoff(%v, %d, %v) = %v, want %v", base, n, max, got, want)
		}
	}
	if got := backoff(2*time.Second, 1, time.Second); got != time.Second {
		t.Errorf("backoff base beyond max = %v, want capped at 1s", got)
	}
}
