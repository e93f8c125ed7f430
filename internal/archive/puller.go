package archive

// The follower's half of checkpoint-shipping replication: a Puller
// periodically lists the primary's committed artifacts
// (/api/v1/replication/manifest), fetches the delta into the replica
// directory, commits the shipped MANIFEST with the same atomic rename a
// checkpoint uses, reopens the directory read-only, and swaps the fresh
// store into the service. The commit point is the MANIFEST rename and
// nothing else: a crash anywhere mid-pull leaves the old manifest
// referencing only old files — a stale replica, never a torn one.
//
// Delta logic: artifacts are immutable once listed (swapped-out WAL
// segments, block files, checkpoint snapshots), and the primary mints
// each name once — segment, block and checkpoint sequence numbers only
// grow — so a file already staged under the same name and size is not
// re-fetched.
//
// Every file request pins the listing's checkpointSeq. If a checkpoint
// lands on the primary mid-pull, the primary answers 409 epoch_mismatch
// before it can serve a file the new position may have reclaimed; the
// puller re-lists and starts over (bounded per cycle).

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// pullCycleBuckets are the replication-cycle wall-time bucket bounds in
// seconds. Cycles span "signature unchanged, nothing pulled" (sub-ms)
// through multi-artifact catch-up pulls, so the range runs wider than
// the handler-latency buckets.
var pullCycleBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// PullerConfig tunes a follower's replication puller.
type PullerConfig struct {
	// PrimaryURL is the primary's base URL (no trailing slash needed).
	PrimaryURL string
	// Dir is the replica directory the puller stages into and the
	// service serves from.
	Dir string
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// Grace is how long a replaced store stays open after a swap so
	// in-flight requests that captured it can finish (default 5s).
	Grace time.Duration
	// Client is the HTTP client for primary requests (default: a client
	// with a 2-minute overall timeout).
	Client *http.Client
	// StoreOptions carries serving-side knobs (the block cache budget)
	// for replica reopens. ReadOnly is forced on regardless of what it
	// says, so the byte trigger never checkpoints the replica.
	StoreOptions tsdb.Options
	// Logf, when set, receives one line per applied delta and per failed
	// cycle.
	Logf func(format string, args ...any)
}

// Puller drives a follower: Start launches the poll loop, SyncOnce runs
// a single cycle synchronously (tests and the pre-serve warmup use it).
type Puller struct {
	svc *Service
	cfg PullerConfig

	stop     chan struct{}
	done     chan struct{}
	startMu  sync.Mutex
	started  bool
	cycleMu  sync.Mutex // serializes SyncOnce with the loop
	lastSig  uint64     // signature of the last applied (or verified) listing
	haveSig  bool
	staged   map[string]struct{} // every artifact the live manifest references
	obsolete map[string]struct{} // artifact files to unlink once old stores retire
	retiring []retiringStore

	// Per-cycle catch-up metrics, registered on the service registry by
	// NewPuller, so /api/v1/meta's replication section carries them:
	// cycles run, deltas applied, failed cycles, 409 re-lists, artifact
	// files actually fetched, artifact bytes shipped over the wire, and
	// the cycle wall-time histogram.
	cycles       obs.Counter
	applied      obs.Counter
	failures     obs.Counter
	relists      obs.Counter
	filesFetched obs.Counter
	bytesShipped obs.Counter
	cycleTime    *obs.Histogram
}

type retiringStore struct {
	db       *tsdb.DB
	deadline time.Time
}

// errRelist signals a 409 from the primary: the pinned position went
// stale mid-pull and the cycle must re-list.
var errRelist = errors.New("archive: replication listing went stale; re-list")

// NewPuller builds a puller for svc, which must already be marked a
// follower (SetFollower) so staleness accounting has somewhere to land.
func NewPuller(svc *Service, cfg PullerConfig) (*Puller, error) {
	if !svc.IsFollower() {
		return nil, errors.New("archive: puller requires a follower service (call SetFollower first)")
	}
	if cfg.PrimaryURL == "" || cfg.Dir == "" {
		return nil, errors.New("archive: puller needs a primary URL and a replica directory")
	}
	cfg.PrimaryURL = strings.TrimRight(cfg.PrimaryURL, "/")
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	p := &Puller{
		svc:       svc,
		cfg:       cfg,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		staged:    make(map[string]struct{}),
		obsolete:  make(map[string]struct{}),
		cycleTime: obs.NewHistogram(pullCycleBuckets),
	}
	p.registerMetrics(svc.Registry())
	return p, nil
}

// registerMetrics wires the puller's counters and cycle histogram onto
// the service registry. Rebuilding a puller for the same service (tests)
// re-points the names at the new instance.
func (p *Puller) registerMetrics(reg *obs.Registry) {
	reg.RegisterCounter("spotlake_replication_cycles_total",
		"Replication sync cycles run.", &p.cycles)
	reg.RegisterCounter("spotlake_replication_applied_total",
		"Replication cycles that applied a delta and swapped the store.", &p.applied)
	reg.RegisterCounter("spotlake_replication_failures_total",
		"Replication cycles that failed.", &p.failures)
	reg.RegisterCounter("spotlake_replication_relists_total",
		"Mid-pull 409s: the pinned listing went stale and the cycle re-listed.", &p.relists)
	reg.RegisterCounter("spotlake_replication_files_fetched_total",
		"Artifact files fetched from the primary (already-staged files not counted).", &p.filesFetched)
	reg.RegisterCounter("spotlake_replication_bytes_shipped_total",
		"Artifact bytes shipped from the primary.", &p.bytesShipped)
	reg.RegisterHistogram("spotlake_replication_cycle_seconds",
		"Wall time of replication sync cycles.", p.cycleTime)
}

// Start launches the poll loop: one immediate sync, then one per
// interval until Stop.
func (p *Puller) Start() {
	p.startMu.Lock()
	defer p.startMu.Unlock()
	if p.started {
		return
	}
	p.started = true
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		for {
			if err := p.SyncOnce(); err != nil {
				p.cfg.Logf("replication sync: %v", err)
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Stop halts the loop and closes every replaced store still in its
// grace period. The store currently serving stays open — the server
// owns closing it at shutdown.
func (p *Puller) Stop() {
	p.startMu.Lock()
	if p.started {
		select {
		case <-p.stop:
		default:
			close(p.stop)
		}
		p.startMu.Unlock()
		<-p.done
	} else {
		p.startMu.Unlock()
	}
	p.cycleMu.Lock()
	defer p.cycleMu.Unlock()
	for _, r := range p.retiring {
		_ = r.db.Close()
	}
	p.retiring = nil
}

// SyncOnce runs one replication cycle: list, fetch the delta, commit,
// reopen, swap. A listing identical to the last applied one just
// refreshes the staleness clock. Returns nil when the replica is
// current (already or newly).
func (p *Puller) SyncOnce() error {
	p.cycleMu.Lock()
	defer p.cycleMu.Unlock()
	p.cycles.Add(1)
	start := time.Now()
	defer func() { p.cycleTime.Observe(time.Since(start)) }()
	p.retireOld(false)
	var err error
	// A checkpoint racing the pull 409s file fetches; re-list a bounded
	// number of times before calling the cycle failed.
	for attempt := 0; attempt < 3; attempt++ {
		err = p.syncCycle()
		if !errors.Is(err, errRelist) {
			break
		}
		p.relists.Add(1)
	}
	if err != nil {
		p.failures.Add(1)
	}
	return err
}

func (p *Puller) syncCycle() error {
	listing, err := p.fetchListing()
	if err != nil {
		return err
	}
	sig := listingSignature(listing)
	if p.haveSig && sig == p.lastSig {
		// Nothing changed on the primary since the last apply: the
		// replica provably holds the primary's committed state as of now.
		p.svc.noteSync(listing.CheckpointSeq, time.Now())
		return nil
	}
	if err := os.MkdirAll(p.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("archive: replica dir: %w", err)
	}
	p.clearTempFiles(p.cfg.Dir)
	// Validate the manifest before moving a byte: a listing the follower
	// could never open is refused up front.
	if err := tsdb.ValidateReplicatedManifest(listing.Manifest); err != nil {
		return fmt.Errorf("archive: primary shipped an unusable manifest: %w", err)
	}
	staged := make(map[string]struct{}, len(listing.Artifacts))
	for _, a := range listing.Artifacts {
		staged[a.Name] = struct{}{}
		if p.haveStaged(a) {
			continue
		}
		n, err := p.fetchArtifact(a, listing.CheckpointSeq)
		if err != nil {
			return err
		}
		p.filesFetched.Add(1)
		p.bytesShipped.Add(uint64(n))
	}
	// Make the staged renames durable before committing a manifest that
	// references them — the checkpoint's own write-all-then-rename order.
	if err := tsdb.SyncReplicaDir(p.cfg.Dir); err != nil {
		return err
	}
	if err := tsdb.CommitReplicatedManifest(p.cfg.Dir, listing.Manifest); err != nil {
		return err
	}
	opts := p.cfg.StoreOptions
	opts.ReadOnly = true
	db, err := tsdb.OpenWithOptions(p.cfg.Dir, opts)
	if err != nil {
		return fmt.Errorf("archive: reopening replica after apply: %w", err)
	}
	old := p.svc.SwapDB(db)
	p.svc.noteSync(listing.CheckpointSeq, time.Now())
	p.lastSig, p.haveSig = sig, true
	p.staged = staged
	p.applied.Add(1)
	if old != nil {
		p.retiring = append(p.retiring, retiringStore{db: old, deadline: time.Now().Add(p.cfg.Grace)})
	}
	// Files the new manifest no longer references (reclaimed segments,
	// superseded checkpoints) are garbage — but the
	// replaced store may still be reading them during its grace period,
	// so deletion waits until every retiring store has closed.
	p.recordObsolete(staged)
	p.cfg.Logf("replication: applied checkpoint %d (%d artifacts)",
		listing.CheckpointSeq, len(listing.Artifacts))
	return nil
}

// haveStaged reports whether artifact a is already present from an
// earlier pull at the listed size: the primary mints each name once, so
// name and size identify the bytes.
func (p *Puller) haveStaged(a tsdb.ReplicationArtifact) bool {
	st, err := os.Stat(filepath.Join(p.cfg.Dir, a.Name))
	return err == nil && st.Size() == a.Size
}

// fetchArtifact downloads one artifact into place (temp file + rename),
// returning its size on disk.
func (p *Puller) fetchArtifact(a tsdb.ReplicationArtifact, seq uint64) (int64, error) {
	url := fmt.Sprintf("%s/api/v1/replication/file/%s?checkpointSeq=%d",
		p.cfg.PrimaryURL, a.Name, seq)
	resp, err := p.cfg.Client.Get(url)
	if err != nil {
		return 0, fmt.Errorf("archive: fetching %s: %w", a.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusGone:
		// The listing's position is no longer current (or a file under it
		// vanished, which the protocol treats the same way): re-list.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, errRelist
	default:
		return 0, fmt.Errorf("archive: fetching %s: %s", a.Name, readAPIError(resp))
	}
	target := filepath.Join(p.cfg.Dir, a.Name)
	tmp := target + pullTempSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("archive: staging %s: %w", a.Name, err)
	}
	n, err := io.Copy(f, resp.Body)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != a.Size {
		err = fmt.Errorf("short read: got %d bytes, listing said %d", n, a.Size)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("archive: staging %s: %w", a.Name, err)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("archive: installing %s: %w", a.Name, err)
	}
	return n, nil
}

const pullTempSuffix = ".pulltmp"

// clearTempFiles removes staging leftovers of crashed pulls.
func (p *Puller) clearTempFiles(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), pullTempSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// recordObsolete scans the replica for artifact-named files the current
// listing does not reference and queues them for deletion.
func (p *Puller) recordObsolete(live map[string]struct{}) {
	ents, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !tsdb.IsReplicationArtifactName(name) {
			continue
		}
		if _, ok := live[name]; !ok {
			p.obsolete[name] = struct{}{}
		}
	}
}

// retireOld closes replaced stores past their grace period and — once
// none remain open — unlinks the queued obsolete files. force closes
// everything immediately (Stop).
func (p *Puller) retireOld(force bool) {
	now := time.Now()
	kept := p.retiring[:0]
	for _, r := range p.retiring {
		if force || !now.Before(r.deadline) {
			_ = r.db.Close()
		} else {
			kept = append(kept, r)
		}
	}
	p.retiring = kept
	if len(p.retiring) > 0 {
		return
	}
	for name := range p.obsolete {
		// A name the current listing re-adopted must survive; staged is
		// re-checked because obsolete entries can be queued cycles ago.
		if _, ok := p.staged[name]; ok {
			delete(p.obsolete, name)
			continue
		}
		if err := os.Remove(filepath.Join(p.cfg.Dir, name)); err == nil || errors.Is(err, os.ErrNotExist) {
			delete(p.obsolete, name)
		}
	}
}

// fetchListing GETs and decodes the primary's replication manifest.
func (p *Puller) fetchListing() (*replListing, error) {
	resp, err := p.cfg.Client.Get(p.cfg.PrimaryURL + "/api/v1/replication/manifest")
	if err != nil {
		return nil, fmt.Errorf("archive: listing primary: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("archive: listing primary: %s", readAPIError(resp))
	}
	var l replListing
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&l); err != nil {
		return nil, fmt.Errorf("archive: decoding replication listing: %w", err)
	}
	if len(l.Manifest) == 0 {
		return nil, errors.New("archive: replication listing carries no manifest")
	}
	return &l, nil
}

// listingSignature hashes everything that defines a listing's state:
// position, manifest bytes, and the artifact set with sizes. Two equal
// signatures mean the replica built from one serves the other.
func listingSignature(l *replListing) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|", l.CheckpointSeq)
	h.Write(l.Manifest)
	names := make([]string, 0, len(l.Artifacts))
	byName := make(map[string]tsdb.ReplicationArtifact, len(l.Artifacts))
	for _, a := range l.Artifacts {
		names = append(names, a.Name)
		byName[a.Name] = a
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(h, "|%s:%d", a.Name, a.Size)
	}
	return h.Sum64()
}

// readAPIError condenses a non-2xx primary response into one line,
// preferring the envelope's code and message when the body carries one.
func readAPIError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e apiError
	if json.Unmarshal(body, &e) == nil && e.Error.Code != "" {
		return fmt.Sprintf("%s (%s: %s)", resp.Status, e.Error.Code, e.Error.Message)
	}
	return resp.Status
}
