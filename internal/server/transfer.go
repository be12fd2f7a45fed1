package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"netcache/internal/store"
)

// Batched replica transfer.
//
// The rebalance pass ends every delivery the same way: keys held here
// must be made present on a peer. transfer does that, a batch at a time,
// and is the only code that sends values to a peer. One POST
// /v1/results/missing asks the peer which keys of the batch its store
// cannot serve, and the values it lacks are read from the local store and
// sent in POST /v1/results pushes of at most transferBatchBytes. A batch
// costs two round trips whatever its size. Values are content-addressed,
// so a fill is unconditional and the keys of a batch need no order between
// them.

const (
	// transferBatchKeys is how many keys one presence check covers and the
	// most keys either endpoint accepts in one request.
	transferBatchKeys = 256
	// transferBatchBytes is the value budget of one push. An entry larger
	// than the budget is pushed alone.
	transferBatchBytes = 1 << 20
	// maxMissingBytes caps a presence-check body: transferBatchKeys hex
	// keys with room for any whitespace a JSON encoder adds.
	maxMissingBytes = 64 << 10
)

// MissingRequest is the POST /v1/results/missing body.
type MissingRequest struct {
	Keys []string `json:"keys"`
}

// MissingResponse lists the requested keys the store cannot serve, in
// request order.
type MissingResponse struct {
	Missing []string `json:"missing"`
}

// ResultFrame is one result of a POST /v1/results push: Value is stored
// under Key byte for byte.
type ResultFrame struct {
	Key   string
	Value []byte
}

// PushOutcome is one entry's fate in a push: Status 200 means stored.
type PushOutcome struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// PushResponse is the POST /v1/results reply: one outcome per frame, in
// frame order, so a bad entry fails only itself.
type PushResponse struct {
	Results []PushOutcome `json:"results"`
}

// A push body is a sequence of frames: the 64-char hex key, the value
// length as a 4-byte big-endian integer, then the value bytes verbatim. A
// JSON envelope would not do: json.Marshal of a json.RawMessage compacts
// and HTML-escapes it, and the stored bytes must be the sender's.
const (
	frameKeyLen    = 64
	frameHeaderLen = frameKeyLen + 4
)

var (
	errTooManyFrames = errors.New("too many frames")
	errBodyTooLarge  = errors.New("body exceeds cap")
)

// encodeFrames frames results for a push. Keys must be 64 bytes long, as
// every valid result key is.
func encodeFrames(frames []ResultFrame) []byte {
	n := 0
	for _, f := range frames {
		n += frameHeaderLen + len(f.Value)
	}
	b := make([]byte, 0, n)
	for _, f := range frames {
		b = append(b, f.Key...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.Value)))
		b = append(b, f.Value...)
	}
	return b
}

// decodeFrames splits a push body into at most maxFrames frames whose
// values alias body. A truncated header or a length past the end fails the
// whole body: past a broken frame the boundaries of the rest are unknown.
// Keys are returned unvalidated.
func decodeFrames(body []byte, maxFrames int) ([]ResultFrame, error) {
	var out []ResultFrame
	for len(body) > 0 {
		if len(out) == maxFrames {
			return nil, errTooManyFrames
		}
		if len(body) < frameHeaderLen {
			return nil, fmt.Errorf("truncated frame: %d-byte header", len(body))
		}
		n := binary.BigEndian.Uint32(body[frameKeyLen:frameHeaderLen])
		rest := body[frameHeaderLen:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("truncated frame: %d-byte value, %d bytes left", n, len(rest))
		}
		out = append(out, ResultFrame{Key: string(body[:frameKeyLen]), Value: rest[:n:n]})
		body = rest[n:]
	}
	return out, nil
}

// readCapped reads a body of at most max bytes, a request's or a
// response's. A declared length over the cap is refused before reading;
// otherwise reading stops one byte past the cap. A declared length sizes
// the buffer once, so what is allocated up front is bounded by the cap
// too, plus the bytes.MinRead that lets the read see EOF without growing.
func readCapped(r io.Reader, declared, max int64) ([]byte, error) {
	if declared > max {
		return nil, errBodyTooLarge
	}
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r, max+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > max {
		return nil, errBodyTooLarge
	}
	return buf.Bytes(), nil
}

// readTransfer reads a transfer request body, answering the error itself
// when it fails.
func (s *Server) readTransfer(w http.ResponseWriter, r *http.Request, max int64) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, "no store configured")
		return nil, false
	}
	return readRequest(w, r, max)
}

// readRequest reads a request body of at most max bytes, answering 413
// for a longer one and 400 for a failed read itself.
func readRequest(w http.ResponseWriter, r *http.Request, max int64) ([]byte, bool) {
	body, err := readCapped(r.Body, r.ContentLength, max)
	switch {
	case errors.Is(err, errBodyTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d-byte cap", max))
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	return body, true
}

// handleMissing serves POST /v1/results/missing: which of the listed keys
// this node's store cannot serve. A key counts as present only if Peek
// returns it checksum-verified; the check never returns values and never
// disturbs the LRU.
func (s *Server) handleMissing(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readTransfer(w, r, maxMissingBytes)
	if !ok {
		return
	}
	var req MissingRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if len(req.Keys) > transferBatchKeys {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%d keys exceed the %d-key cap", len(req.Keys), transferBatchKeys))
		return
	}
	for _, key := range req.Keys {
		if !store.ValidKey(key) {
			writeError(w, http.StatusBadRequest, "key must be 64 hex chars")
			return
		}
	}
	resp := MissingResponse{Missing: []string{}}
	for _, key := range req.Keys {
		if _, ok := s.cfg.Store.Peek(key); !ok {
			resp.Missing = append(resp.Missing, key)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePush serves POST /v1/results: the replica push target of the
// rebalance pass. Each frame is checked and stored on its own; a malformed
// body (broken framing, too many frames, over the byte cap) stores
// nothing.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readTransfer(w, r, maxPushBytes)
	if !ok {
		return
	}
	frames, err := decodeFrames(body, transferBatchKeys)
	switch {
	case errors.Is(err, errTooManyFrames):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("push exceeds the %d-entry cap", transferBatchKeys))
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.allowPut() {
		// Degraded: the pusher counts the keys owed and retries later.
		writeError(w, http.StatusServiceUnavailable, "store degraded; retry later")
		return
	}
	resp := PushResponse{Results: make([]PushOutcome, len(frames))}
	for i, f := range frames {
		out := &resp.Results[i]
		switch {
		case !store.ValidKey(f.Key):
			*out = PushOutcome{Status: http.StatusBadRequest, Error: "key must be 64 hex chars"}
		case !validJSON(f.Value):
			*out = PushOutcome{Status: http.StatusBadRequest, Error: "value is not JSON"}
		default:
			if err := s.cfg.Store.Put(f.Key, f.Value); err != nil {
				s.putFailed(f.Key, err)
				*out = PushOutcome{Status: http.StatusInternalServerError, Error: "store put: " + err.Error()}
				continue
			}
			s.putSucceeded()
			s.m.add(&s.m.rebalanceReceived)
			out.Status = http.StatusOK
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// transferOutcome is what transfer did with one key.
type transferOutcome uint8

const (
	transferUnsent  transferOutcome = iota // never attempted: the transfer ended first
	transferFailed                         // its push failed; a later pass retries
	transferPresent                        // the peer already had it
	transferStored                         // pushed and stored by the peer
	transferGone                           // no readable local copy (evicted or corrupt)
)

// transfer makes keys present on peer and reports, per key in the order of
// keys, what happened. Each transferBatchKeys batch gets one presence
// check; a failed check treats every key as missing (pushing a key the
// peer holds wastes bytes, never correctness). The missing values are read
// with Store.Peek, so transfers never disturb the LRU, and pushed in
// requests of at most transferBatchBytes. A push that fails in transport
// marks the peer down and ends the transfer; a status error fails only
// that push. afterPush, when set, runs after every delivered push with the
// number of keys it carried and ends the transfer by returning false. Keys
// a transfer never reached, and those of a push cut by ctx, stay
// transferUnsent.
func (s *Server) transfer(ctx context.Context, peer string, keys []string, afterPush func(sent int) bool) []transferOutcome {
	out := make([]transferOutcome, len(keys))
	c := s.peerClient(peer)
	var (
		frames []ResultFrame
		idx    []int // frames[j] is keys[idx[j]]
		size   int
	)
	// push sends the pending frames and reports whether to go on.
	push := func() bool {
		sent := len(frames)
		res, err := c.PushResults(ctx, frames)
		if err != nil && ctx.Err() != nil {
			return false
		}
		for j, i := range idx {
			switch {
			case err != nil:
				out[i] = transferFailed
			case res[j].Status == http.StatusOK:
				out[i] = transferStored
			default:
				out[i] = transferFailed
				s.cfg.Log.Printf("rebalance: push %s -> %s: %d %s", frames[j].Key[:8], peer, res[j].Status, res[j].Error)
			}
		}
		frames, idx, size = frames[:0], idx[:0], 0
		var se *StatusError
		switch {
		case err == nil:
			return afterPush == nil || afterPush(sent)
		case errors.As(err, &se):
			s.cfg.Log.Printf("rebalance: push %d keys -> %s: %v", sent, peer, err)
			return true
		default:
			s.cfg.Log.Printf("rebalance: push %d keys -> %s: %v", sent, peer, err)
			s.cfg.Cluster.MarkDown(peer)
			return false
		}
	}
	st := s.cfg.Store
	for start := 0; start < len(keys); start += transferBatchKeys {
		batch := keys[start:min(start+transferBatchKeys, len(keys))]
		missing, err := c.MissingResults(ctx, batch)
		if err != nil && ctx.Err() != nil {
			return out
		}
		lacks := make(map[string]bool, len(missing))
		for _, key := range missing {
			lacks[key] = true
		}
		for i, key := range batch {
			if err == nil && !lacks[key] {
				out[start+i] = transferPresent
				continue
			}
			val, ok := st.Peek(key)
			if !ok {
				out[start+i] = transferGone
				continue
			}
			if len(frames) > 0 && size+len(val) > transferBatchBytes && !push() {
				return out
			}
			frames = append(frames, ResultFrame{Key: key, Value: val})
			idx = append(idx, start+i)
			size += len(val)
		}
		if len(frames) > 0 && !push() {
			return out
		}
	}
	return out
}
