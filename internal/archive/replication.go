package archive

// Checkpoint-shipping replication over HTTP.
//
// The primary exposes its store's committed artifacts (see
// internal/tsdb/replication.go for the contract) on two endpoints:
//
//	GET /api/v1/replication/manifest
//	    A coherent listing: the committed MANIFEST bytes, the
//	    checkpointSeq position they were captured at, and every
//	    artifact file with its size.
//	GET /api/v1/replication/file/{name}?checkpointSeq=S
//	    One artifact, served range-able via http.ServeContent. The
//	    request pins the listing's position: if a checkpoint (which may
//	    reclaim WAL segments and the old snapshot) landed since, the
//	    primary answers 409 epoch_mismatch (the code's name predates
//	    the position being the checkpoint sequence alone) and the
//	    follower re-lists; a file that vanished under an unchanged
//	    position (impossible today, defensive tomorrow) answers 410.
//
// Followers run a Puller (puller.go) against these endpoints and serve
// every read endpoint themselves; SetFollower marks the service a
// replica, which (a) refuses the replication-source endpoints — chained
// replication is not supported, a follower's artifact set is momentarily
// torn during applies — and (b) gates reads behind the staleness bound:
// past -max-staleness without a confirmed sync, reads answer 503
// stale_replica rather than silently serving arbitrarily old data.
// /api/v1/meta stays exempt, exactly like admission: a sick replica must
// remain observable, and the meta body itself carries the staleness
// numbers an operator needs.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/tsdb"
)

// followerState is the replica-side bookkeeping SetFollower installs.
type followerState struct {
	primaryURL   string
	maxStaleness time.Duration
	// since is when SetFollower ran: until the first sync, how long the
	// replica has gone without one is counted from it.
	since time.Time
	// lastSync is the UnixNano of the last cycle that confirmed the
	// replica current (applied a delta or verified there was none);
	// 0 = never synced.
	lastSync atomic.Int64
	// appliedSeq is the primary position of the last applied (or
	// verified-current) listing.
	appliedSeq atomic.Uint64
}

// SetFollower marks the service a read replica of primaryURL with the
// given staleness bound (<= 0 disables the bound: the replica serves
// however stale it is). Must be called before Handler(). The replica's
// applied-position and staleness gauges register on the service
// registry.
func (s *Service) SetFollower(primaryURL string, maxStaleness time.Duration) {
	f := &followerState{primaryURL: primaryURL, maxStaleness: maxStaleness, since: time.Now()}
	s.follower = f
	s.reg.GaugeFunc("spotlake_replication_applied_checkpoint_seq",
		"Primary checkpoint sequence of the last applied listing.",
		func() float64 { return float64(f.appliedSeq.Load()) })
	s.reg.GaugeFunc("spotlake_replication_seconds_behind",
		"Seconds since the last confirmed sync with the primary (before the first, since the replica was set up).",
		func() float64 {
			since := f.since
			if last := f.lastSync.Load(); last != 0 {
				since = time.Unix(0, last)
			}
			return time.Since(since).Seconds()
		})
	s.reg.GaugeFunc("spotlake_replication_max_staleness_seconds",
		"The staleness bound past which the replica sheds reads (0 = unbounded).",
		func() float64 { return max(maxStaleness, 0).Seconds() })
	s.reg.GaugeFunc("spotlake_replication_stale",
		"1 when the replica is past its staleness bound and shedding reads.",
		func() float64 {
			if _, stale := f.staleFor(time.Now()); stale {
				return 1
			}
			return 0
		})
}

// IsFollower reports whether the service serves as a read replica.
func (s *Service) IsFollower() bool { return s.follower != nil }

// noteSync records a successful sync cycle at the given primary
// position. The puller calls it both after applying a delta and after
// verifying the replica is already current — either way the replica's
// staleness clock resets, because its state is provably the primary's
// committed state as of now.
func (s *Service) noteSync(checkpointSeq uint64, at time.Time) {
	f := s.follower
	if f == nil {
		return
	}
	f.appliedSeq.Store(checkpointSeq)
	f.lastSync.Store(at.UnixNano())
}

// staleFor reports how long the replica has gone without a confirmed
// sync, and whether that exceeds the staleness bound.
func (f *followerState) staleFor(now time.Time) (time.Duration, bool) {
	if f.maxStaleness <= 0 {
		return 0, false
	}
	last := f.lastSync.Load()
	if last == 0 {
		// Never synced: stale by definition — the replica may be serving
		// a local directory of any age.
		return f.maxStaleness, true
	}
	behind := now.Sub(time.Unix(0, last))
	return behind, behind > f.maxStaleness
}

// withFollowerGate rejects reads on a replica past its staleness bound.
// On a primary (or a follower within bound) it is h untouched.
func (s *Service) withFollowerGate(h http.Handler) http.Handler {
	if s.follower == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := s.follower
		// The observability surface (meta, metrics, health/readiness)
		// stays reachable so a sick replica remains observable — /readyz
		// in particular must answer its own verdict, not a gate's; the
		// replication endpoints answer 403 not_primary on a follower no
		// matter what, which is more actionable than a staleness 503.
		if !exemptPath(r.URL.Path) && !strings.HasPrefix(r.URL.Path, "/api/v1/replication/") {
			if behind, stale := f.staleFor(time.Now()); stale {
				// The bound is usually a multiple of the poll interval, so
				// one interval is the natural retry hint.
				w.Header().Set("Retry-After", "1")
				writeAPIError(w, http.StatusServiceUnavailable, ErrCodeStaleReplica, "",
					fmt.Errorf("archive: replica is %s behind the primary (max staleness %s); retry against the primary or another replica",
						behind.Round(time.Second), f.maxStaleness))
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// handleReadyz answers the readiness probe. On a follower, ready means
// the applied position is within the staleness bound; on a primary,
// ready means a store is open and serving. Liveness (/healthz) stays
// 200 either way — a stale follower is not-ready, not dead, so a load
// balancer pools it out while it catches up instead of restarting it.
func (s *Service) handleReadyz(w http.ResponseWriter) {
	if f := s.follower; f != nil {
		if behind, stale := f.staleFor(time.Now()); stale {
			w.Header().Set("Retry-After", "1")
			writeAPIError(w, http.StatusServiceUnavailable, ErrCodeStaleReplica, "",
				fmt.Errorf("archive: not ready: replica is %s behind the primary (max staleness %s)",
					behind.Round(time.Second), f.maxStaleness))
			return
		}
	} else if s.store() == nil {
		writeAPIError(w, http.StatusServiceUnavailable, ErrCodeInternal, "",
			errors.New("archive: not ready: no store open"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ready\n")
}

// replListing is the /api/v1/replication/manifest response: the store's
// artifact list, its manifest verbatim, and the position the listing is
// coherent at.
type replListing struct {
	APIVersion    string                     `json:"apiVersion"`
	CheckpointSeq uint64                     `json:"checkpointSeq"`
	Manifest      []byte                     `json:"manifest"`
	Artifacts     []tsdb.ReplicationArtifact `json:"artifacts"`
}

func (s *Service) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		writeAPIError(w, http.StatusForbidden, ErrCodeNotPrimary, "",
			errors.New("archive: this server is a follower; pull from the primary"))
		return
	}
	db := s.store()
	if !db.Durable() {
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound, "",
			errors.New("archive: memory-only store has no replication artifacts"))
		return
	}
	snap, err := db.ReplicationSnapshot()
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, ErrCodeInternal, "", err)
		return
	}
	out := replListing{
		APIVersion:    APIVersion,
		CheckpointSeq: snap.CheckpointSeq,
		Manifest:      snap.Manifest,
		Artifacts:     snap.Artifacts,
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleReplFile(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		writeAPIError(w, http.StatusForbidden, ErrCodeNotPrimary, "",
			errors.New("archive: this server is a follower; pull from the primary"))
		return
	}
	db := s.store()
	if !db.Durable() {
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound, "",
			errors.New("archive: memory-only store has no replication artifacts"))
		return
	}
	name := r.PathValue("name")
	if !tsdb.IsReplicationArtifactName(name) {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadParam, "name",
			fmt.Errorf("archive: %q is not a replication artifact name", name))
		return
	}
	wantSeq, err := strconv.ParseUint(r.URL.Query().Get("checkpointSeq"), 10, 64)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadParam, "checkpointSeq",
			errors.New("archive: file requests must pin the listing's checkpointSeq"))
		return
	}
	// The position check makes the listing's coherence span the whole
	// pull: a checkpoint bumps checkpointSeq before it reclaims any file
	// the old listing referenced, so a puller that pinned the old
	// position learns it must re-list instead of racing the reclamation.
	if seq := db.ReplicationPosition(); seq != wantSeq {
		writeAPIError(w, http.StatusConflict, ErrCodeEpochMismatch, "",
			fmt.Errorf("archive: listing position (checkpoint %d) is stale; primary is at checkpoint %d — re-list",
				wantSeq, seq))
		return
	}
	f, err := os.Open(filepath.Join(db.Dir(), filepath.FromSlash(name)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeAPIError(w, http.StatusGone, ErrCodeGone, "",
				fmt.Errorf("archive: replication artifact %s is gone; re-list", name))
			return
		}
		writeAPIError(w, http.StatusInternalServerError, ErrCodeInternal, "", err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, ErrCodeInternal, "", err)
		return
	}
	// ServeContent gives Range/If-Modified-Since handling for free; the
	// artifacts are immutable, so ranged resumes of an interrupted
	// download are always byte-correct.
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, filepath.Base(name), st.ModTime(), f)
}
