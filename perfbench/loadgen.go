package main

import (
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loopback is an HTTP server on a 127.0.0.1 listener.
type loopback struct {
	base string
	srv  *http.Server
	done chan error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits for its serve loop to end.
func (lb *loopback) close() error {
	if err := lb.srv.Close(); err != nil {
		return err
	}
	if err := <-lb.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// clients returns n HTTP clients with one connection each: the load
// generator's connection budget.
func clients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// shot is one request of an open-loop schedule. Times are offsets from the
// schedule's start.
type shot struct {
	req  int           // index into the request list
	due  time.Duration // when the schedule says to send it
	sent time.Duration // when a connection was free to send it
	done time.Duration // when its response body was read
	ok   bool          // a 2xx response arrived
	body []byte        // kept for sampled requests only
}

// latency is the request's time from its due time, which includes any
// wait for a connection behind earlier slow requests.
func (s shot) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s shot) lag() time.Duration { return s.sent - s.due }

// openLoop sends requests on a fixed schedule, rate per second for dur,
// over the given clients: request j is due at j/rate and goes out on the
// first free connection, however long earlier requests take. uri maps a
// schedule index to the request to send; keep says which bodies to retain.
func openLoop(cs []*http.Client, base string, rate float64, dur time.Duration, uri func(j int) (int, string), keep func(j int) bool) []shot {
	n := int(rate * dur.Seconds())
	shots := make([]shot, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				s := shot{due: time.Duration(float64(j) * interval)}
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				var u string
				s.req, u = uri(j)
				s.sent = time.Since(start)
				resp, err := c.Get(base + u)
				if err == nil {
					if keep(j) {
						s.body, err = io.ReadAll(resp.Body)
					} else {
						_, err = io.CopyBuffer(io.Discard, resp.Body, buf)
					}
					resp.Body.Close()
					s.ok = err == nil && resp.StatusCode/100 == 2
				}
				s.done = time.Since(start)
				shots[j] = s
			}
		}(c)
	}
	wg.Wait()
	return shots
}

// latencies returns each shot's latency from its due time in ms, infinite
// for a failed request: it misses any limit.
func latencies(shots []shot) []float64 {
	lat := make([]float64, len(shots))
	for i, s := range shots {
		lat[i] = ms(s.latency())
		if !s.ok {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

// closedLoop keeps every connection busy for dur, each sending its next
// request as soon as the previous response is read, and counts the
// responses: the server's saturation throughput, a rate with the backlog
// held at one request per connection.
func closedLoop(cs []*http.Client, base string, dur time.Duration, uri func(j int) string) (done, failed int64) {
	var next, ok, bad atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for _, c := range cs {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for time.Now().Before(deadline) {
				resp, err := c.Get(base + uri(int(next.Add(1)-1)))
				if err == nil {
					_, err = io.CopyBuffer(io.Discard, resp.Body, buf)
					resp.Body.Close()
					if err == nil && resp.StatusCode/100 == 2 {
						ok.Add(1)
						continue
					}
				}
				bad.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return ok.Load() + bad.Load(), bad.Load()
}
