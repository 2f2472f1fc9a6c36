package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// RemoteServer is the server half of the remote artifact tier: a minimal
// HTTP object store over a local content-addressed Store (and so over its
// packs, budget, LRU GC, and health breaker). One daemon
// (`paperrepro artifactd`) serves a whole fleet of workers; the protocol is
// documented on the Doer seam in remote.go.
//
// The server never learns the keyspace: GETs and HEADs address records by
// content hash, and PUTs carry records that embed and authenticate their
// own identity — the server re-derives the address from the record, rejects
// mismatches, and appends only verified records to its store's pack, so a
// half-written upload can never be served.
type RemoteServer struct {
	store *Store
	mux   *http.ServeMux

	gets, puts, heads     atomic.Uint64
	getMisses, putRejects atomic.Uint64
	bytesIn, bytesOut     atomic.Uint64
}

// NewRemoteServer serves the given store over the remote object protocol.
func NewRemoteServer(store *Store) *RemoteServer {
	s := &RemoteServer{store: store}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(remotePathPrefix, s.handleObject)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the server's HTTP handler.
func (s *RemoteServer) Handler() http.Handler { return s.mux }

// Store returns the backing store (stats, tests).
func (s *RemoteServer) Store() *Store { return s.store }

func (s *RemoteServer) handleObject(w http.ResponseWriter, r *http.Request) {
	addr := strings.TrimPrefix(r.URL.Path, remotePathPrefix)
	if !validAddress(addr) {
		http.Error(w, "malformed content address", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.gets.Add(1)
		// Zero-copy path for records the store has already verified this
		// process: the ResponseWriter is a ReaderFrom, so on the OS
		// filesystem this Copy of the record's span of its pack is a
		// sendfile — the record never transits user space. First serves
		// (and any store in doubt) take the verifying GetRecord path below.
		if f, size, ok := s.store.OpenRecord(addr); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", fmt.Sprint(size))
			io.Copy(w, io.LimitReader(f, size))
			f.Close()
			s.bytesOut.Add(uint64(size))
			return
		}
		record, ok := s.store.GetRecord(addr)
		if !ok {
			s.getMisses.Add(1)
			http.Error(w, "no record at address", http.StatusNotFound)
			return
		}
		s.bytesOut.Add(uint64(len(record)))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(record)))
		w.Write(record)
	case http.MethodHead:
		s.heads.Add(1)
		if !s.store.StatRecord(addr) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodPut:
		s.puts.Add(1)
		// Presized like the client's readBody: a short upload is judged by
		// record verification below, not treated as a transport error.
		record, err := readBody(r.Body, r.ContentLength)
		if err != nil {
			s.putRejects.Add(1)
			http.Error(w, "reading record body", http.StatusBadRequest)
			return
		}
		s.bytesIn.Add(uint64(len(record)))
		if _, err := s.store.PutRecord(record, addr); err != nil {
			if errors.Is(err, ErrCorrupt) {
				s.putRejects.Add(1)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			// A store-side failure (full or degraded disk): the record did
			// not land, but the request was well-formed.
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET, HEAD or PUT an artifact record", http.StatusMethodNotAllowed)
	}
}

// RemoteServerStats is the daemon's observability snapshot: its own
// request counters plus the backing store's uniform tier quad.
type RemoteServerStats struct {
	Gets       uint64    `json:"gets"`
	GetMisses  uint64    `json:"get_misses"`
	Puts       uint64    `json:"puts"`
	PutRejects uint64    `json:"put_rejects"`
	Heads      uint64    `json:"heads"`
	BytesIn    uint64    `json:"bytes_in"`
	BytesOut   uint64    `json:"bytes_out"`
	Store      TierStats `json:"store"`
}

// Stats snapshots the server's counters.
func (s *RemoteServer) Stats() RemoteServerStats {
	return RemoteServerStats{
		Gets:       s.gets.Load(),
		GetMisses:  s.getMisses.Load(),
		Puts:       s.puts.Load(),
		PutRejects: s.putRejects.Load(),
		Heads:      s.heads.Load(),
		BytesIn:    s.bytesIn.Load(),
		BytesOut:   s.bytesOut.Load(),
		Store:      s.store.Stats(),
	}
}

func (s *RemoteServer) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
