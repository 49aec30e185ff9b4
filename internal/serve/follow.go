package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"webrev/internal/repository"
)

// FollowOptions parameterizes Server.Follow, the self-healing reload loop
// behind `webrevd -follow`. The zero value polls every 2s with failure
// backoff capped at 1m.
type FollowOptions struct {
	// Load produces a candidate repository from the followed source
	// (required). It runs under the same recover boundary as /api/reload:
	// a panic is a rejected reload, not a dead process.
	Load func() (*repository.Repository, error)
	// Fingerprint cheaply identifies the source's current content; Follow
	// only calls Load when the fingerprint differs from the last
	// successfully installed one, and installs a load only if the
	// fingerprint is unchanged across it (a source rewritten mid-load may
	// have been read torn). Nil means every poll attempts a load and
	// installs whatever validates. A fingerprint error counts as "changed"
	// (the source may be mid-write — exactly when validation must
	// arbitrate).
	Fingerprint func() (string, error)
	// Interval is the poll cadence while healthy (default 2s).
	Interval time.Duration
	// MaxBackoff caps the exponential backoff applied after consecutive
	// failed reloads (default 1m). Backoff starts at Interval and doubles.
	MaxBackoff time.Duration
	// OnSwap, when set, observes each successful install (new generation,
	// fingerprint). For logs.
	OnSwap func(gen uint64, fingerprint string)
	// OnReject, when set, observes each rejected reload. For logs.
	OnReject func(err error)
}

func (o *FollowOptions) withDefaults() FollowOptions {
	out := *o
	if out.Interval <= 0 {
		out.Interval = 2 * time.Second
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = time.Minute
	}
	return out
}

// Follow polls a reload source until ctx is done, installing each changed,
// valid snapshot and surviving everything else: a missing source, a
// mid-write or corrupt checkpoint, a panicking loader. On any failure the
// current generation keeps serving, serve.reload_rejected is counted, and
// the next attempt backs off exponentially (reset by the next success).
// The first successful install also flips a pending server ready.
//
// Follow is the continuous-operation consumer of PR 8's watch loop: point
// it at the repository directory `webrev watch -out DIR` rewrites each
// cycle and webrevd tracks the watcher's schema without restarts.
func (s *Server) Follow(ctx context.Context, opts FollowOptions) error {
	if opts.Load == nil {
		return fmt.Errorf("serve: follow: Load is required")
	}
	opts = opts.withDefaults()

	lastGood := "" // fingerprint of the installed generation
	failures := 0  // consecutive rejected reloads
	first := true  // attempt an immediate load before the first sleep
	for {
		if !first {
			delay := opts.Interval
			if failures > 0 {
				delay = backoff(opts.Interval, failures, opts.MaxBackoff)
			}
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		first = false

		var fp string
		var fpErr error
		if opts.Fingerprint != nil {
			fp, fpErr = opts.Fingerprint()
			if fpErr == nil && fp == lastGood && failures == 0 {
				continue // source unchanged, nothing to do
			}
			// A fingerprint error falls through to a load attempt: the
			// source may be appearing or mid-write.
		}

		repo, err := safeReload(opts.Load)
		if err == nil && opts.Fingerprint != nil {
			if now, nowErr := opts.Fingerprint(); fpErr != nil || nowErr != nil || now != fp {
				err = fmt.Errorf("serve: follow: source changed during the load")
			}
		}
		if err == nil {
			var gen uint64
			gen, err = s.TrySwap(repo)
			if err == nil {
				lastGood = fp
				failures = 0
				if opts.OnSwap != nil {
					opts.OnSwap(gen, fp)
				}
				continue
			}
		} else {
			s.rejectReload(err)
		}
		failures++
		if opts.OnReject != nil {
			opts.OnReject(err)
		}
	}
}

// backoff returns the delay after n consecutive failures: base doubled
// n-1 times, capped at max.
func backoff(base time.Duration, n int, max time.Duration) time.Duration {
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// DirFingerprint summarizes a repository directory (the disk store plus
// schema.dtd that repository.Save writes) into a cheap content
// fingerprint: an FNV-1a hash over the schema.dtd and index.log bytes.
// Every index line carries its document's SHA-256, so any rewrite of the
// repository — including a partial one — changes the fingerprint, which
// is what triggers a follow-mode reload attempt; validation then decides
// whether the new state is servable.
func DirFingerprint(dir string) (string, error) {
	h := fnv.New64a()
	for _, name := range []string{"schema.dtd", "index.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		h.Write(data)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
