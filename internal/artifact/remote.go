package artifact

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The remote artifact tier: a minimal HTTP object protocol that lets N
// worker processes on different machines share one warm content-addressed
// store. The wire unit is the same versioned, CRC-64-checksummed BCA1
// record the disk tier persists, addressed by SHA-256(kind, key):
//
//	GET  /v1/artifact/{addr}  -> 200 + record bytes | 404
//	HEAD /v1/artifact/{addr}  -> 200 | 404
//	PUT  /v1/artifact/{addr}  <- record bytes; the server re-derives the
//	                             address from the record's embedded (kind,
//	                             key), verifies the checksum, and appends
//	                             it to the server store's pack; mismatches
//	                             are rejected with 400
//	GET  /v1/stats            -> server counters (JSON)
//	GET  /healthz             -> 200 "ok"
//
// The client side (Remote, below) layers under the local disk store as a
// read-through/write-behind tier — see Store.get and Store.put — so a
// remote hit populates the local tier and the hot path never blocks on the
// network: Puts ride a bounded asynchronous queue, and every response body
// is fully re-verified (structure, key, CRC) before use, so a corrupt,
// truncated, or split-brain response can cost a regeneration, never
// correctness. Remote failures follow the PR 5 health-breaker policy:
// transient faults retry, breakerTrip consecutive failed logical ops trip
// the tier into degraded (local-only) mode for the rest of the process.

// Doer is the transport seam the remote tier runs on: http.Client
// implements it, and internal/faultnet provides a deterministic
// fault-injecting implementation for exercising the degradation paths
// (timeouts, 5xx storms, truncated bodies, split-brain stores) without a
// real failing network.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// remotePathPrefix is the object endpoint; the content address follows it.
const remotePathPrefix = "/v1/artifact/"

// maxRemoteRecord bounds one record read off the wire (a corrupted
// Content-Length must not balloon memory). Far above any real artifact.
const maxRemoteRecord = 1 << 31

// remoteQueueDepth bounds the write-behind queue; beyond it Puts are
// dropped (counted, best-effort contract) rather than blocking the engine.
const remoteQueueDepth = 256

// DefaultRemoteTimeout bounds one remote round trip when the caller
// supplies no transport of its own.
const DefaultRemoteTimeout = 30 * time.Second

// Remote is the client half of the remote artifact tier. It is safe for
// concurrent use; a nil *Remote is a valid "no remote tier" and every
// method on it is a cheap no-op (miss, drop).
type Remote struct {
	base string
	doer Doer

	queue chan []byte
	quit  chan struct{}
	done  chan struct{}
	// pending tracks enqueued-but-unlanded write-behinds for Flush.
	pending sync.WaitGroup

	mu          sync.Mutex
	hits        uint64
	misses      uint64
	verifyFails uint64
	opErrors    uint64
	wireBytes   uint64 // record bytes moved over the network, both ways
	dropped     uint64 // write-behinds shed by a full queue or a degraded tier
	consecFails int
	degraded    bool
	closed      bool
}

// NewRemote builds the client for a remote store rooted at base (e.g.
// "http://10.0.0.7:8092"). A nil doer selects an http.Client with
// DefaultRemoteTimeout. The returned Remote owns a background write-behind
// worker; Close releases it.
func NewRemote(base string, doer Doer) *Remote {
	if doer == nil {
		doer = &http.Client{Timeout: DefaultRemoteTimeout}
	}
	r := &Remote{
		base:  strings.TrimRight(base, "/"),
		doer:  doer,
		queue: make(chan []byte, remoteQueueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.worker()
	return r
}

// Base returns the remote store's base URL.
func (r *Remote) Base() string { return r.base }

// url builds the object URL for one content address.
func (r *Remote) url(addr string) string { return r.base + remotePathPrefix + addr }

// isOff reports whether the tier may no longer touch the network. Only the
// breaker turns the network off: the closed flag stops new write-behind
// enqueues (see PutAsync), but Close's final drain must still publish what
// was queued before it, and Gets keep answering on the caller's transport.
func (r *Remote) isOff() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degraded
}

// noteSuccess resets the breaker on a definitive server answer (a record,
// a 404, a landed PUT): the remote is reachable and responding.
func (r *Remote) noteSuccess() {
	r.mu.Lock()
	r.consecFails = 0
	r.mu.Unlock()
}

// noteFailure counts one failed logical operation (post retry) and trips
// the breaker after breakerTrip consecutive failures: the tier goes
// local-only for the rest of the process, mirroring the disk store's
// policy in health.go.
func (r *Remote) noteFailure() {
	r.mu.Lock()
	r.opErrors++
	r.consecFails++
	if r.consecFails >= breakerTrip {
		r.degraded = true
	}
	r.mu.Unlock()
}

// roundTrip performs one request with the store's retry policy: transport
// errors and 5xx responses are transient (the request is rebuilt and
// retried up to retryAttempts times), anything else is definitive. The
// response body is fully read (bounded) and the connection released. A
// miss is reported as (nil body, 404, nil error).
func (r *Remote) roundTrip(method, addr string, body []byte) (respBody []byte, status int, err error) {
	for try := 1; ; try++ {
		var req *http.Request
		req, err = http.NewRequest(method, r.url(addr), bytes.NewReader(body))
		if err != nil {
			return nil, 0, err // malformed base URL: permanent, no retry
		}
		if body != nil {
			req.ContentLength = int64(len(body))
		}
		var resp *http.Response
		resp, err = r.doer.Do(req)
		if err == nil {
			declared := resp.ContentLength
			if method == http.MethodHead {
				declared = 0 // no body follows the header
			}
			respBody, err = readBody(resp.Body, declared)
			resp.Body.Close()
			if err == nil && resp.StatusCode < 500 {
				r.mu.Lock()
				r.wireBytes += uint64(len(respBody)) + uint64(len(body))
				r.mu.Unlock()
				return respBody, resp.StatusCode, nil
			}
			if err == nil {
				err = fmt.Errorf("artifact: remote %s %s: server error %s", method, addr, resp.Status)
			}
		}
		if try >= retryAttempts {
			return nil, 0, err
		}
	}
}

// readBody drains one bounded body. A declared Content-Length sizes the
// buffer exactly — one allocation, filled with large reads — instead of
// ReadAll's doubling growth, which costs an extra copy of every record on
// the warm-share path. A body shorter than declared is returned as-is, not
// as an error: record verification judges the bytes, exactly as it judged
// the growing reader's.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	if declared > 0 && declared <= maxRemoteRecord {
		buf := make([]byte, declared)
		n, err := io.ReadFull(body, buf)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return buf[:n], nil
		}
		return buf[:n], err
	}
	return io.ReadAll(io.LimitReader(body, maxRemoteRecord))
}

// Get fetches and verifies the record for (kind, key), returning the
// payload and the verified raw record (for the caller to populate the
// local tier with). Corrupt or mismatched responses — bit flips,
// truncation, a split-brain store serving another address's bytes — count
// a verify failure and report a miss; the caller regenerates.
func (r *Remote) Get(kind uint16, key string) (payload, record []byte, ok bool) {
	if r.isOff() {
		return nil, nil, false
	}
	data, status, err := r.roundTrip(http.MethodGet, Address(kind, key), nil)
	if err != nil {
		r.noteFailure()
		r.bumpMiss()
		return nil, nil, false
	}
	r.noteSuccess()
	if status == http.StatusNotFound {
		r.bumpMiss()
		return nil, nil, false
	}
	if status != http.StatusOK {
		r.mu.Lock()
		r.opErrors++
		r.misses++
		r.mu.Unlock()
		return nil, nil, false
	}
	payload, err = DecodeRecord(data, kind, key)
	if err != nil {
		r.mu.Lock()
		r.verifyFails++
		r.misses++
		r.mu.Unlock()
		return nil, nil, false
	}
	r.mu.Lock()
	r.hits++
	r.mu.Unlock()
	return payload, data, true
}

func (r *Remote) bumpMiss() {
	r.mu.Lock()
	r.misses++
	r.mu.Unlock()
}

// Head reports whether the remote store holds a record for (kind, key),
// without moving the record.
func (r *Remote) Head(kind uint16, key string) bool {
	if r.isOff() {
		return false
	}
	_, status, err := r.roundTrip(http.MethodHead, Address(kind, key), nil)
	if err != nil {
		r.noteFailure()
		return false
	}
	r.noteSuccess()
	return status == http.StatusOK
}

// PutAsync queues one already-encoded record for write-behind publication.
// It never blocks: a full queue or a degraded tier drops the record
// (counted in the tier's eviction column), matching the store's
// best-effort Put contract. The caller must not mutate record afterwards.
func (r *Remote) PutAsync(record []byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	off := r.degraded || r.closed
	r.mu.Unlock()
	if off {
		r.drop()
		return
	}
	r.pending.Add(1)
	select {
	case r.queue <- record:
	default:
		r.pending.Done()
		r.drop()
	}
}

func (r *Remote) drop() {
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

// putRecord publishes one record synchronously (the worker's half of
// PutAsync, and the path tests drive directly).
func (r *Remote) putRecord(record []byte) {
	if r.isOff() {
		r.drop()
		return
	}
	kind, key, err := RecordInfo(record)
	if err != nil {
		// Never ship bytes we cannot vouch for; an encoder bug stays local.
		r.mu.Lock()
		r.verifyFails++
		r.mu.Unlock()
		return
	}
	_, status, err := r.roundTrip(http.MethodPut, Address(kind, key), record)
	if err != nil {
		r.noteFailure()
		return
	}
	r.noteSuccess()
	if status/100 != 2 {
		// A definitive rejection (4xx) is an answered request — the breaker
		// measures reachability, not agreement — but still a failed op.
		r.mu.Lock()
		r.opErrors++
		r.mu.Unlock()
	}
}

// worker drains the write-behind queue until Close.
func (r *Remote) worker() {
	defer close(r.done)
	for {
		select {
		case rec := <-r.queue:
			r.putRecord(rec)
			r.pending.Done()
		case <-r.quit:
			// Drain what was queued before the quit — the tail of a run's
			// publications — then exit. Anything enqueued after this loop
			// observes an empty queue is dropped by the closed flag.
			for {
				select {
				case rec := <-r.queue:
					r.putRecord(rec)
					r.pending.Done()
				default:
					return
				}
			}
		}
	}
}

// Flush blocks until every queued write-behind has been attempted (landed,
// failed, or dropped). Workers call it before exiting so a fleet-shared
// store actually holds what the run produced.
func (r *Remote) Flush() {
	if r == nil {
		return
	}
	r.pending.Wait()
}

// Close flushes and stops the write-behind worker. Subsequent PutAsync
// calls drop; Gets keep answering (the transport is the caller's).
func (r *Remote) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.quit)
	<-r.done
}

// Stats returns the remote tier's counters on the uniform quad, with two
// documented remappings (the tier has no resident bytes and evicts
// nothing): ResidentBytes counts record bytes moved over the wire in
// either direction, and Evictions counts write-behinds shed by a full
// queue or a degraded tier.
func (r *Remote) Stats() TierStats {
	if r == nil {
		return TierStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return TierStats{
		Hits:          r.hits,
		Misses:        r.misses,
		Evictions:     r.dropped,
		ResidentBytes: r.wireBytes,
		VerifyFails:   r.verifyFails,
		OpErrors:      r.opErrors,
		Degraded:      r.degraded,
	}
}
