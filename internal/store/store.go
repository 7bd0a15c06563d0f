// Package store is the persistent, content-addressed simulation result
// store behind the campaign subsystem: a crash-safe, append-only NDJSON log
// of finished simulations, keyed by smtmlp.Fingerprint, plus a canonical
// snapshot of single-threaded reference profiles for warm-starting an
// engine's RefCache after a restart.
//
// On-disk layout (one directory per store):
//
//	results.ndjson — one Record per line, append-only, in the order results
//	                 were committed. Each append is a single write of a full
//	                 line, so a crash can lose at most a partial trailing
//	                 line; Open detects and truncates such a tail. The same
//	                 fingerprint is never written twice (dedupe on append).
//	refs.ndjson    — one sim.RefRecord per line, sorted by key. Rewritten
//	                 atomically (temp file + rename) by MergeRefs, so it is
//	                 always either the previous or the new snapshot, never a
//	                 torn write. Corruption here only costs re-simulation,
//	                 so a damaged refs file is ignored rather than fatal.
//
// Both files contain no timestamps or other nondeterminism: a store written
// by an interrupted-then-resumed campaign is byte-identical to one written
// by an uninterrupted run (the campaign runner commits results in submission
// order, and the simulator itself is deterministic).
//
// A Store is safe for concurrent use. Byte-level determinism of
// results.ndjson is guaranteed for serial campaign execution; concurrent
// campaigns interleave their appends in completion order.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smtmlp"
	"smtmlp/internal/obs"
	"smtmlp/internal/sim"
)

// Record is one persisted simulation: the content address, the full request
// (so the store can be queried and re-expanded without the spec that
// produced it) and the result.
type Record struct {
	Fingerprint string                `json:"fp"`
	Request     smtmlp.Request        `json:"request"`
	Result      smtmlp.WorkloadResult `json:"result"`
}

// logFile is the results log as the store writes it: an *os.File opened for
// appending, or a fault-injecting wrapper in tests.
type logFile interface {
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is an open result store. See the package comment for the layout.
type Store struct {
	dir string
	log *slog.Logger

	mu      sync.Mutex
	results logFile
	size    int64          // end of the last complete line in results
	broken  error          // set when a failed write could not be rolled back
	index   map[string]int // fingerprint -> position in records
	records []Record       // append order
	refs    map[string]sim.RefRecord

	// Convergence counters since Open (not persisted): appends that wrote a
	// line, and appends rejected because the fingerprint was already present.
	// Under fleet execution the dedupe count is the number of duplicate
	// results (retries, hedged leases) the store absorbed.
	appends    int64
	dedupeHits int64
}

const (
	resultsFile = "results.ndjson"
	refsFile    = "refs.ndjson"
)

// Open opens (creating as needed) the store rooted at dir. A partial
// trailing line in results.ndjson — the signature of a crash mid-append —
// is truncated away; a malformed line anywhere else is corruption and an
// error. A malformed refs.ndjson is discarded (references are a cache: the
// cost of losing them is re-simulation, not data loss).
func Open(dir string) (*Store, error) {
	return OpenWithLogger(dir, nil)
}

// OpenWithLogger opens like Open with a structured logger for recovery
// events — a torn results tail being truncated away is worth an operator's
// attention even though the store heals it silently. A nil logger discards.
func OpenWithLogger(dir string, log *slog.Logger) (*Store, error) {
	if log == nil {
		log = obs.Discard()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, resultsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		log:     log,
		results: f,
		index:   make(map[string]int),
		refs:    make(map[string]sim.RefRecord),
	}
	if err := s.loadResults(); err != nil {
		f.Close()
		return nil, err
	}
	s.loadRefs()
	s.log.Info("store opened", "dir", dir, "results", len(s.records), "refs", len(s.refs))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// loadResults reads the whole results log, builds the fingerprint index and
// recovers from a torn trailing line by truncating the file back to the end
// of the last complete record.
func (s *Store) loadResults() error {
	data, err := os.ReadFile(filepath.Join(s.dir, resultsFile))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good := 0 // byte offset of the end of the last valid line
	for len(data) > good {
		rest := data[good:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// No terminating newline: a crash interrupted the final append.
			break
		}
		line := rest[:nl]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Fingerprint == "" {
			if good+nl+1 == len(data) {
				break // malformed final line: same torn-append recovery
			}
			return fmt.Errorf("store: corrupt record at byte %d of %s: %v",
				good, resultsFile, err)
		}
		if _, dup := s.index[rec.Fingerprint]; !dup {
			s.index[rec.Fingerprint] = len(s.records)
			s.records = append(s.records, rec)
		}
		good += nl + 1
	}
	if good < len(data) {
		if err := s.results.Truncate(int64(good)); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		s.log.Warn("truncated torn results tail",
			"file", resultsFile, "dropped_bytes", len(data)-good)
	}
	s.size = int64(good)
	return nil
}

// write appends whole lines to the results log. A failed or short write
// (ENOSPC, EIO, ...) is rolled back: the log is truncated to the end of the
// last complete line, so the next append does not land behind partial
// bytes that would make the next Open fail on a corrupt record mid-file. If
// the rollback fails too, the store fails closed: every later append
// returns the error.
func (s *Store) write(lines []byte) error {
	if s.broken != nil {
		return s.broken
	}
	n, err := s.results.Write(lines)
	if err == nil && n < len(lines) {
		err = io.ErrShortWrite
	}
	if err == nil {
		s.size += int64(n)
		return nil
	}
	if terr := s.results.Truncate(s.size); terr != nil {
		s.broken = fmt.Errorf("store: results log unusable after a failed write (%v): %w", err, terr)
		return s.broken
	}
	return fmt.Errorf("store: %w", err)
}

// loadRefs reads the reference snapshot; malformed content is ignored.
func (s *Store) loadRefs() {
	data, err := os.ReadFile(filepath.Join(s.dir, refsFile))
	if err != nil {
		return
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec sim.RefRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			continue
		}
		s.refs[rec.Key] = rec
	}
}

// Len reports the number of persisted results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Has reports whether a result with the given fingerprint is persisted.
func (s *Store) Has(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[fp]
	return ok
}

// Get returns the persisted record for fp, if any.
func (s *Store) Get(fp string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[fp]
	if !ok {
		return Record{}, false
	}
	return s.records[i], true
}

// Append persists rec unless its fingerprint is already present; it reports
// whether the record was added. The line is committed with a single write,
// which is what makes a torn append detectable (and recoverable) on Open.
func (s *Store) Append(rec Record) (bool, error) {
	if rec.Fingerprint == "" {
		return false, fmt.Errorf("store: record without fingerprint")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[rec.Fingerprint]; dup {
		s.dedupeHits++
		return false, nil
	}
	if err := s.write(line); err != nil {
		return false, err
	}
	s.index[rec.Fingerprint] = len(s.records)
	s.records = append(s.records, rec)
	s.appends++
	return true, nil
}

// AppendBatch persists recs in order under one lock acquisition, skipping
// fingerprints already present (including duplicates within recs itself —
// the first occurrence wins). All new lines are committed with a single
// write, so a crash mid-batch leaves complete leading lines plus at most one
// torn final line, exactly the shape Open recovers from. It returns the
// number of records actually added.
//
// This is the fleet merge path: a coordinator commits a whole lease of
// results atomically with respect to concurrent appenders, so interleaved
// lease merges never interleave *within* a lease.
func (s *Store) AppendBatch(recs []Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate and marshal everything before mutating any state, so a bad
	// record leaves both the file and the in-memory index untouched.
	var buf bytes.Buffer
	fresh := make([]Record, 0, len(recs))
	dups := int64(0)
	inBatch := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.Fingerprint == "" {
			return 0, fmt.Errorf("store: record without fingerprint")
		}
		if _, dup := s.index[rec.Fingerprint]; dup || inBatch[rec.Fingerprint] {
			dups++
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		inBatch[rec.Fingerprint] = true
		fresh = append(fresh, rec)
	}
	s.dedupeHits += dups
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := s.write(buf.Bytes()); err != nil {
		return 0, err
	}
	for _, rec := range fresh {
		s.index[rec.Fingerprint] = len(s.records)
		s.records = append(s.records, rec)
	}
	s.appends += int64(len(fresh))
	return len(fresh), nil
}

// Metrics is a point-in-time observability snapshot of the store, exposed by
// the service's /metrics endpoint so fleet convergence is visible per worker
// and per coordinator.
type Metrics struct {
	// Results is the number of persisted results; Refs the number of
	// persisted reference profiles.
	Results int `json:"results"`
	Refs    int `json:"refs"`
	// AppendsTotal counts results written since Open; DedupeHits counts
	// appends absorbed as duplicates (fleet retries and hedged leases land
	// here).
	AppendsTotal int64 `json:"appends_total"`
	DedupeHits   int64 `json:"dedupe_hits"`
	// RefsSnapshotAgeSeconds is the age of the refs.ndjson snapshot on disk
	// (-1 when no snapshot has been written yet).
	RefsSnapshotAgeSeconds float64 `json:"refs_snapshot_age_seconds"`
}

// Metrics reports the store's observability counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Results:                len(s.records),
		Refs:                   len(s.refs),
		AppendsTotal:           s.appends,
		DedupeHits:             s.dedupeHits,
		RefsSnapshotAgeSeconds: -1,
	}
	dir := s.dir
	s.mu.Unlock()
	if fi, err := os.Stat(filepath.Join(dir, refsFile)); err == nil {
		m.RefsSnapshotAgeSeconds = time.Since(fi.ModTime()).Seconds()
	}
	return m
}

// Records returns all persisted results in append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// Query filters persisted results; zero-valued fields match everything.
type Query struct {
	// Policy matches the request's policy short name (e.g. "mlpflush").
	Policy string
	// Workload matches the workload's hyphenated name (e.g. "mcf-galgel").
	Workload string
	// Benchmark matches workloads containing the benchmark on any thread.
	Benchmark string
	// Threads matches workloads of exactly this size.
	Threads int
	// ConfigHash matches the smtmlp.ConfigHash of the request configuration.
	ConfigHash uint64
}

// match reports whether rec satisfies every set dimension of q.
func (q Query) match(rec Record) bool {
	if q.Policy != "" && rec.Request.Policy.String() != q.Policy {
		return false
	}
	if q.Workload != "" && rec.Request.Workload.Name() != q.Workload {
		return false
	}
	if q.Threads != 0 && len(rec.Request.Workload.Benchmarks) != q.Threads {
		return false
	}
	if q.Benchmark != "" {
		found := false
		for _, b := range rec.Request.Workload.Benchmarks {
			if b == q.Benchmark {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if q.ConfigHash != 0 && smtmlp.ConfigHash(rec.Request.Config) != q.ConfigHash {
		return false
	}
	return true
}

// Select returns the persisted results matching q, in append order.
func (s *Store) Select(q Query) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, rec := range s.records {
		if q.match(rec) {
			out = append(out, rec)
		}
	}
	return out
}

// Refs returns the persisted single-threaded reference profiles, sorted by
// key — ready to seed into an engine's cache via smtmlp.Cache.Seed.
func (s *Store) Refs() []sim.RefRecord {
	s.mu.Lock()
	recs := make([]sim.RefRecord, 0, len(s.refs))
	for _, rec := range s.refs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sortRefs(recs)
	return recs
}

// MergeRefs unions profiles into the persisted reference set and, if
// anything is new, atomically rewrites the canonical snapshot (sorted by
// key, temp file + rename). It returns the number of newly persisted
// profiles. Existing keys keep their stored profile — for a deterministic
// simulator the two are identical anyway, and keeping the incumbent makes
// repeated merges byte-stable.
func (s *Store) MergeRefs(profiles []sim.RefRecord) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, rec := range profiles {
		if rec.Key == "" {
			continue
		}
		if _, ok := s.refs[rec.Key]; ok {
			continue
		}
		s.refs[rec.Key] = rec
		added++
	}
	if added == 0 {
		return 0, nil
	}
	all := make([]sim.RefRecord, 0, len(s.refs))
	for _, rec := range s.refs {
		all = append(all, rec)
	}
	sortRefs(all)
	var buf bytes.Buffer
	for _, rec := range all {
		line, err := json.Marshal(rec)
		if err != nil {
			return added, fmt.Errorf("store: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := filepath.Join(s.dir, refsFile+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return added, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, refsFile)); err != nil {
		return added, fmt.Errorf("store: %w", err)
	}
	return added, nil
}

// sortRefs orders records by key.
func sortRefs(recs []sim.RefRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
}

// Close syncs and closes the results log. The store must not be used after
// Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.results == nil {
		return nil
	}
	syncErr := s.results.Sync()
	closeErr := s.results.Close()
	s.results = nil
	if syncErr != nil {
		return fmt.Errorf("store: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: %w", closeErr)
	}
	return nil
}
