package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache"
)

// flakyHandler fails the first failN requests with code, then succeeds.
func flakyHandler(failN int32, code int, retryAfter string) (*atomic.Int32, http.HandlerFunc) {
	var calls atomic.Int32
	return &calls, func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= failN {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"error":"flaky %d"}`, n)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}
}

func testClient(ts *httptest.Server) *Client {
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7}
	return c
}

func TestRetryEventualSuccess(t *testing.T) {
	calls, h := flakyHandler(2, http.StatusInternalServerError, "")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts)
	raw, err := c.get(context.Background(), "/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"ok":true}` {
		t.Fatalf("body = %s", raw)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d attempts, want 3", n)
	}
}

func TestRetryGivesUp(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusServiceUnavailable, "")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts)
	_, err := c.get(context.Background(), "/x")
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("cause not preserved: %v", err)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("%d attempts, want 4", n)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusBadRequest, "")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts)
	_, err := c.get(context.Background(), "/x")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a 400 was retried: %d attempts", n)
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	calls, h := flakyHandler(1, http.StatusTooManyRequests, "1")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts) // backoff would be ~1-5ms; Retry-After forces 1s
	start := time.Now()
	if _, err := c.get(context.Background(), "/x"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, want >= 1s from Retry-After", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
}

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusInternalServerError, "")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	if _, err := c.get(context.Background(), "/x"); err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("zero policy made %d attempts", n)
	}
}

func TestAttemptTimeoutRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done() // hang until the attempt deadline kills us
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := testClient(ts)
	c.Retry.AttemptTimeout = 50 * time.Millisecond
	raw, err := c.get(context.Background(), "/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"ok":true}` || calls.Load() != 2 {
		t.Fatalf("body=%s calls=%d", raw, calls.Load())
	}
}

func TestCallerContextStopsRetries(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusInternalServerError, "")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := testClient(ts)
	// Cancellation must cut the backoff sleep short.
	c.Retry.BaseDelay, c.Retry.MaxDelay = 10*time.Second, 10*time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := c.get(ctx, "/x")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d attempts after cancel", calls.Load())
	}
}

// TestBodyCap: a reply longer than MaxBodyBytes fails, whether it comes
// without a length (read up to the cap) or declares one over the cap
// (refused before any byte of the body is read).
func TestBodyCap(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 4096))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	c.MaxBodyBytes = 1024
	_, err := c.get(context.Background(), "/x")
	if err == nil || !strings.Contains(err.Error(), "exceeds 1024-byte cap") {
		t.Fatalf("err = %v", err)
	}

	body := &countingBody{Reader: bytes.NewReader(make([]byte, 4096))}
	c.HTTPClient = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: 4096, Body: body, Request: r}, nil
	})}
	_, err = c.get(context.Background(), "/x")
	if err == nil || !strings.Contains(err.Error(), "exceeds 1024-byte cap") {
		t.Fatalf("declared 4096 bytes: err = %v", err)
	}
	if body.reads != 0 {
		t.Fatalf("declared 4096 bytes: the body was read %d times before the refusal", body.reads)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody is a response body that counts its reads.
type countingBody struct {
	io.Reader
	reads int
}

func (b *countingBody) Read(p []byte) (int, error) {
	b.reads++
	return b.Reader.Read(p)
}

func (b *countingBody) Close() error { return nil }

func TestBatchRetriesFailedEntries(t *testing.T) {
	// The batch endpoint succeeds, but individual entries fail on their
	// first serving; the client must re-post only the failed specs.
	var seen sync.Map
	_, c := start(t, Config{Workers: 2, RunFunc: func(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
		k := fmt.Sprintf("%s/%s/%g", spec.App, spec.System, spec.Scale)
		if _, loaded := seen.LoadOrStore(k, true); !loaded {
			return netcache.Result{}, errors.New("transient backend failure")
		}
		return netcache.Result{App: spec.App, Cycles: 7}, nil
	}})
	c.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}

	specs := []netcache.RunSpec{
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.1},
		{App: "sor", System: netcache.SystemNetCache, Scale: 0.2},
	}
	entries, err := c.Batch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.Status != http.StatusOK {
			t.Fatalf("entry %d = %+v after retries", i, e)
		}
	}
}
