package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
)

// opCounter counts attempted and failed operations: experiments, HTTP
// requests and correctness checks. error_rate is failed/attempted.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// add records n attempted operations of which bad failed, keeping err as
// the run's first failure reason.
func (o *opCounter) add(n, bad int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += n
	o.failed += bad
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
}

// check records one correctness check; ok=false counts as a failure.
func (o *opCounter) check(ok bool, format string, args ...any) {
	if ok {
		o.add(1, 0, nil)
		return
	}
	o.add(1, 1, fmt.Errorf(format, args...))
}

// do sends one HTTP request and counts it. A transport error (a refused
// connection included) or a non-2xx status is a failed operation; the body
// is returned only for a 2xx answer.
func (o *opCounter) do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		o.add(1, 1, err)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, body)
	}
	if err != nil {
		o.add(1, 1, err)
		return nil, err
	}
	o.add(1, 0, nil)
	return body, nil
}

// errorRate is failed/attempted.
func (o *opCounter) errorRate() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return ratio(float64(o.failed), float64(o.attempted))
}
