// Command rsscheck runs a command and enforces a peak-RSS budget on it:
// the child's maximum resident set (rusage) is printed and, when it
// exceeds -budget-kb, rsscheck exits non-zero. The CI scale-smoke gate
// wraps the sharded build with it, so a change that breaks the flat-memory
// property (a resident corpus, an unbounded cache) fails the PR instead of
// landing silently.
//
// Usage:
//
//	rsscheck -budget-kb 524288 ./webrev build -dir work -corpus corpus -shards 2
//
// The child's stdout/stderr pass through; a child that itself fails makes
// rsscheck fail regardless of memory use. Wrap a compiled binary, not
// `go run` — `go run`'s rusage would measure the toolchain, not the build.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

func main() {
	budget := flag.Int64("budget-kb", 0, "peak-RSS budget in KB (required, > 0)")
	flag.Parse()
	if *budget <= 0 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: rsscheck -budget-kb N COMMAND [ARGS...]")
		os.Exit(2)
	}
	cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	runErr := cmd.Run()
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "rsscheck:", runErr)
		os.Exit(1)
	}
	peakKB := int64(-1)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakKB = ru.Maxrss
		if runtime.GOOS == "darwin" {
			// Maxrss is bytes on darwin, KB on linux.
			peakKB /= 1024
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "rsscheck: command failed:", runErr)
		os.Exit(1)
	}
	if peakKB < 0 {
		fmt.Fprintln(os.Stderr, "rsscheck: rusage unavailable on this platform")
		os.Exit(1)
	}
	fmt.Printf("rsscheck: peak RSS %d KB (budget %d KB)\n", peakKB, *budget)
	if peakKB > *budget {
		fmt.Fprintf(os.Stderr, "rsscheck: peak RSS %d KB exceeds budget %d KB\n", peakKB, *budget)
		os.Exit(1)
	}
}
