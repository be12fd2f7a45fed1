package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"netcache"
	"netcache/internal/cluster"
)

// defaultMaxBodyBytes caps response body reads when Client.MaxBodyBytes is
// unset, so a misbehaving server cannot OOM the client.
const defaultMaxBodyBytes = 64 << 20

// Client talks to a netcached server. The zero value of every optional
// field preserves the simple behavior: http.DefaultClient, a single attempt
// per request, and a 64 MiB response-body cap.
//
// With Retry configured, transport errors, per-attempt timeouts, and
// retryable statuses (429, 5xx except 501) are retried with exponential
// backoff plus deterministic jitter; a 429's Retry-After header overrides
// the computed backoff. Batch additionally re-posts just the failed entries
// of a partially successful batch. Every request spends its own attempt
// budget; a caller that wants to fail fast against a dead server checks
// Health, which makes one attempt, first.
type Client struct {
	BaseURL    string // e.g. "http://127.0.0.1:8100"
	HTTPClient *http.Client

	// Retry configures transport-level retries; the zero value performs a
	// single attempt.
	Retry RetryPolicy

	// MaxBodyBytes caps how much of a response body is read (default 64
	// MiB). Responses that exceed it fail rather than exhaust memory.
	MaxBodyBytes int64

	// Headers are added to every request. The cluster proxy path uses this
	// to mark inter-node traffic so the receiving peer serves it
	// authoritatively instead of re-proxying.
	Headers map[string]string

	// PerRequest, when non-nil, may mutate each outgoing request's headers
	// after Headers is applied. The inter-node client uses it to stamp the
	// sender's current membership epoch, which changes between requests.
	PerRequest func(h http.Header)

	// OnResponse, when non-nil, observes every response's headers (success
	// or failure). The inter-node client uses it to notice a peer running a
	// newer membership epoch and trigger a gossip pull.
	OnResponse func(h http.Header)

	mu  sync.Mutex
	rng uint64 // jitter PRNG state, lazily seeded from Retry.Seed
}

// NewClient returns a Client for baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// NewResilientClient returns a Client for baseURL with the default retry
// policy — the configuration sweeps should use against a shared daemon.
func NewResilientClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, Retry: DefaultRetryPolicy()}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// StatusError is a non-200 service reply.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration // populated on 429
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("netcached: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// retryableStatus reports whether a status code is worth retrying: the
// server may give a different answer next time (load shedding, transient
// internal failures), unlike 4xx contract errors.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusRequestTimeout:
		return true
	}
	return code >= 500 && code != http.StatusNotImplemented
}

func (c *Client) post(ctx context.Context, path string, in any) ([]byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, http.MethodPost, path, "application/json", body)
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, "", nil)
}

// do issues the request with the client's retry policy: up to
// Retry.MaxAttempts tries, exponential backoff with deterministic jitter
// between them, and Retry-After honored on 429. ctype labels a non-nil
// body.
func (c *Client) do(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	attempts := c.Retry.attempts()
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, last)); err != nil {
				return nil, err
			}
		}
		raw, err := c.attempt(ctx, method, path, ctype, body)
		if err == nil {
			return raw, nil
		}
		last = err
		if ctx.Err() != nil {
			return nil, err // the caller's context ended; do not retry
		}
		if se, ok := err.(*StatusError); ok && !retryableStatus(se.Code) {
			return nil, err
		}
	}
	if attempts > 1 {
		return nil, fmt.Errorf("netcached: giving up after %d attempts: %w", attempts, last)
	}
	return nil, last
}

// attempt performs one HTTP exchange, with the per-attempt timeout applied.
func (c *Client) attempt(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	actx := ctx
	if c.Retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.Retry.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	for k, v := range c.Headers {
		req.Header.Set(k, v)
	}
	if c.PerRequest != nil {
		c.PerRequest(req.Header)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if c.OnResponse != nil {
		c.OnResponse(resp.Header)
	}
	raw, err := c.readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode}
		var eb errorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			se.Msg = eb.Error
		} else {
			se.Msg = string(raw)
		}
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			se.RetryAfter = time.Duration(sec) * time.Second
		}
		return nil, se
	}
	return raw, nil
}

// readBody reads at most MaxBodyBytes through readCapped, the reader the
// transfer handlers use for request bodies: a declared length sizes one
// buffer, and a body longer than the cap is an error, not an allocation.
func (c *Client) readBody(resp *http.Response) ([]byte, error) {
	limit := c.MaxBodyBytes
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	raw, err := readCapped(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, errBodyTooLarge) {
		return nil, fmt.Errorf("netcached: response body exceeds %d-byte cap", limit)
	}
	return raw, err
}

// backoff computes the pre-attempt delay: a server-supplied Retry-After
// when present, else exponential backoff with full jitter in the upper half
// of the interval.
func (c *Client) backoff(attempt int, last error) time.Duration {
	if se, ok := last.(*StatusError); ok && se.RetryAfter > 0 {
		if se.RetryAfter > retryAfterCap {
			return retryAfterCap
		}
		return se.RetryAfter
	}
	d := c.Retry.baseDelay() << (attempt - 1)
	if max := c.Retry.maxDelay(); d > max || d <= 0 {
		d = max
	}
	// Full jitter over [d/2, d): desynchronizes retry herds while keeping
	// the schedule deterministic per seed.
	return d/2 + time.Duration(c.rand()%uint64(d/2+1))
}

// rand steps the client's deterministic jitter PRNG (splitmix64).
func (c *Client) rand() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == 0 {
		c.rng = c.Retry.Seed
		if c.rng == 0 {
			c.rng = 1
		}
	}
	c.rng += 0x9e3779b97f4a7c15
	x := c.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RunRaw posts spec to /v1/run and returns the raw result JSON — the bytes
// the store serves, byte-identical across identical specs.
func (c *Client) RunRaw(ctx context.Context, spec netcache.RunSpec) ([]byte, error) {
	return c.post(ctx, "/v1/run", spec)
}

// Run posts spec to /v1/run and decodes the Result.
func (c *Client) Run(ctx context.Context, spec netcache.RunSpec) (netcache.Result, error) {
	raw, err := c.RunRaw(ctx, spec)
	if err != nil {
		return netcache.Result{}, err
	}
	var res netcache.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return netcache.Result{}, fmt.Errorf("netcached: decoding result: %w", err)
	}
	return res, nil
}

// Batch posts specs to /v1/batch and returns one entry per spec, in order.
// With retries configured, entries that failed with a retryable status are
// re-posted (as a smaller batch) with backoff until they succeed or the
// attempt budget runs out; only the final outcomes are returned.
func (c *Client) Batch(ctx context.Context, specs []netcache.RunSpec) ([]BatchEntry, error) {
	entries, err := c.batchOnce(ctx, specs)
	if err != nil {
		return nil, err
	}
	for attempt := 1; attempt < c.Retry.attempts(); attempt++ {
		var retry []int
		for i, e := range entries {
			if e.Status != http.StatusOK && retryableStatus(e.Status) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 {
			break
		}
		if err := c.sleep(ctx, c.backoff(attempt, nil)); err != nil {
			return nil, err
		}
		again := make([]netcache.RunSpec, len(retry))
		for j, i := range retry {
			again[j] = specs[i]
		}
		redone, err := c.batchOnce(ctx, again)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			continue // whole retry batch failed; spend another attempt
		}
		for j, i := range retry {
			entries[i] = redone[j]
		}
	}
	return entries, nil
}

func (c *Client) batchOnce(ctx context.Context, specs []netcache.RunSpec) ([]BatchEntry, error) {
	raw, err := c.post(ctx, "/v1/batch", BatchRequest{Specs: specs})
	if err != nil {
		return nil, err
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("netcached: decoding batch: %w", err)
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("netcached: batch returned %d results for %d specs", len(resp.Results), len(specs))
	}
	return resp.Results, nil
}

// Lookup performs a store-only fetch of key (GET /v1/result/{key}): a hit
// returns the cached bytes, a 404 reports a clean miss, and anything else
// is an error. It never triggers a simulation on the server — the
// primitive behind upstream read-through chaining.
func (c *Client) Lookup(ctx context.Context, key string) ([]byte, bool, error) {
	raw, err := c.get(ctx, "/v1/result/"+key)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return raw, true, nil
}

// MissingResults asks the server which of keys (at most 256) its store
// cannot serve (POST /v1/results/missing) — the presence check before a
// replica push. The answer is in request order and carries no values.
func (c *Client) MissingResults(ctx context.Context, keys []string) ([]string, error) {
	raw, err := c.post(ctx, "/v1/results/missing", MissingRequest{Keys: keys})
	if err != nil {
		return nil, err
	}
	var resp MissingResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("netcached: decoding missing keys: %w", err)
	}
	return resp.Missing, nil
}

// PushResults stores results on the server in one request (POST
// /v1/results, at most 256 frames) — the replica push of the rebalance
// pass. It returns one outcome per frame, in order; an error means no
// frame's fate is known.
func (c *Client) PushResults(ctx context.Context, frames []ResultFrame) ([]PushOutcome, error) {
	raw, err := c.do(ctx, http.MethodPost, "/v1/results", "application/octet-stream", encodeFrames(frames))
	if err != nil {
		return nil, err
	}
	var resp PushResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("netcached: decoding push outcomes: %w", err)
	}
	if len(resp.Results) != len(frames) {
		return nil, fmt.Errorf("netcached: push returned %d outcomes for %d frames", len(resp.Results), len(frames))
	}
	return resp.Results, nil
}

// ClusterStatus fetches /v1/cluster: ring parameters, per-peer health, and
// the replica-repair status.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterResponse, error) {
	raw, err := c.get(ctx, "/v1/cluster")
	if err != nil {
		return ClusterResponse{}, err
	}
	var resp ClusterResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return ClusterResponse{}, fmt.Errorf("netcached: decoding cluster status: %w", err)
	}
	return resp, nil
}

// Membership fetches the server's current membership view (epoch + peer
// set) from GET /v1/cluster/membership — the gossip pull primitive.
func (c *Client) Membership(ctx context.Context) (cluster.Membership, error) {
	raw, err := c.get(ctx, "/v1/cluster/membership")
	if err != nil {
		return cluster.Membership{}, err
	}
	var m cluster.Membership
	if err := json.Unmarshal(raw, &m); err != nil {
		return cluster.Membership{}, fmt.Errorf("netcached: decoding membership: %w", err)
	}
	return m, nil
}

// UpdateMembership applies a membership change (cluster.ActionJoin,
// ActionRemove, ActionDecommission) to peer via any cluster member and
// returns the resulting membership. The member bumps the epoch, adopts the
// new ring, and pushes it to the other peers; gossip finishes convergence.
func (c *Client) UpdateMembership(ctx context.Context, action, peer string) (cluster.Membership, error) {
	raw, err := c.post(ctx, "/v1/cluster/membership", MembershipRequest{Action: action, Peer: peer})
	if err != nil {
		return cluster.Membership{}, err
	}
	var m cluster.Membership
	if err := json.Unmarshal(raw, &m); err != nil {
		return cluster.Membership{}, fmt.Errorf("netcached: decoding membership: %w", err)
	}
	return m, nil
}

// offerMembership pushes m to a peer (gossip push after an admin change);
// the peer adopts it if newer.
func (c *Client) offerMembership(ctx context.Context, m cluster.Membership) error {
	_, err := c.post(ctx, "/v1/cluster/membership", MembershipRequest{Action: membershipActionAdopt, Membership: &m})
	return err
}

// rangeDigests fetches the peer's per-range digests of the keys both it
// and asker replicate.
func (c *Client) rangeDigests(ctx context.Context, asker string) (DigestResponse, error) {
	raw, err := c.get(ctx, "/v1/cluster/digest?peer="+url.QueryEscape(asker))
	if err != nil {
		return DigestResponse{}, err
	}
	var resp DigestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return DigestResponse{}, fmt.Errorf("netcached: decoding digest: %w", err)
	}
	return resp, nil
}

// Apps fetches the Table 4 application list.
func (c *Client) Apps(ctx context.Context) ([]AppInfo, error) {
	raw, err := c.get(ctx, "/v1/apps")
	if err != nil {
		return nil, err
	}
	var infos []AppInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Health probes /healthz once, whatever the retry policy, and returns the
// reported state: "ok" or "degraded". A draining or unreachable server
// returns an error. A caller that probes on a schedule retries by probing
// again.
func (c *Client) Health(ctx context.Context) (string, error) {
	raw, err := c.attempt(ctx, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return "", err
	}
	return string(bytes.TrimSpace(raw)), nil
}

// StoreStats fetches /v1/stats: the storage engine's per-tier occupancy
// and maintenance counters, plus the server's degraded flag.
func (c *Client) StoreStats(ctx context.Context) (StatsResponse, error) {
	raw, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return StatsResponse{}, err
	}
	var resp StatsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return StatsResponse{}, fmt.Errorf("netcached: decoding stats: %w", err)
	}
	return resp, nil
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.get(ctx, "/metrics")
	return string(raw), err
}
