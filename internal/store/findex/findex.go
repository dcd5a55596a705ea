// Package findex is the findings time-series: every analysis run is
// appended to one CRC-framed log file and queried through the
// internal/store/query language with an index-aware planner that always
// returns results byte-identical to a full scan.
//
// The log (see log.go for the frame layout) is the only durable state.
// Open verifies every frame and decodes only each frame's compact run
// header into an in-memory run table: per-repo sequences plus posting lists
// by CWE, severity, file and time. Queries filter, sort and LIMIT over that
// table and read back, CRC-check and decode only the runs they return.
package findex

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/findings"
)

// Run is one persisted analysis run.
type Run struct {
	Repo        string             `json:"repo"`
	Seq         uint64             `json:"seq"`
	Time        int64              `json:"time"`
	Source      string             `json:"source,omitempty"`
	Score       float64            `json:"score,omitempty"`
	HasScore    bool               `json:"has_score,omitempty"`
	Total       int                `json:"total"`
	MaxSeverity findings.Severity  `json:"max_severity"`
	CountsByCWE map[uint32]int     `json:"counts_by_cwe,omitempty"`
	Findings    []findings.Finding `json:"findings,omitempty"`
}

// NewRun builds a Run from a findings report. Seq and Time are assigned at
// Append; pass score via WithScore for scored sources.
func NewRun(repo, source string, rep *findings.Report) Run {
	r := Run{Repo: repo, Source: source, Total: rep.Total(), Findings: rep.Findings}
	counts := make(map[uint32]int)
	for _, f := range rep.Findings {
		counts[uint32(f.CWE)]++
		if f.Severity > r.MaxSeverity {
			r.MaxSeverity = f.Severity
		}
	}
	if len(counts) > 0 {
		r.CountsByCWE = counts
	}
	return r
}

// WithScore attaches a model score to the run.
func (r Run) WithScore(score float64) Run {
	r.Score, r.HasScore = score, true
	return r
}

var (
	errClosed = errors.New("findex: store is closed")
	// errFailed marks a store whose write or fsync failed: the log may end
	// in a torn frame the run table does not describe, so every later
	// Append is refused. Reopening truncates the torn tail.
	errFailed = errors.New("findex: store failed; reopen to recover")
)

// Store is an open findings log. Safe for concurrent use: appends are
// serialized and share fsyncs; queries run concurrently with them and see
// a prefix of the appends.
type Store struct {
	f *os.File
	// writeAt and sync are f's write and fsync; tests replace them to
	// inject I/O failures.
	writeAt func(p []byte, off int64) (int, error)
	sync    func() error

	mu   sync.Mutex // serializes appends; guards err and buf
	err  error      // errClosed or a sticky errFailed; refuses appends
	buf  []byte     // frame encoding scratch
	size atomic.Int64

	syncMu sync.Mutex // serializes fsyncs
	synced atomic.Int64

	tmu     sync.RWMutex // guards t
	t       table
	appends atomic.Uint64
}

// Open opens or creates the log at path. It verifies every frame's CRC,
// truncates a torn last frame, and refuses — leaving the file untouched —
// a file that is not a findings log or is damaged before its last frame.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, writeAt: f.WriteAt, sync: f.Sync, t: newTable()}
	end, err := s.load()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("findex: open %s: %w", path, err)
	}
	s.size.Store(end)
	s.synced.Store(end)
	return s, nil
}

// Close closes the log. Every acknowledged Append is already durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == errClosed {
		return nil
	}
	s.err = errClosed
	return s.f.Close()
}

// Stats is a point-in-time account of the store, for metrics exposition.
type Stats struct {
	// Bytes is the log length.
	Bytes int64
	// Appends counts runs appended since Open.
	Appends uint64
}

// Stats reports the log length and the appends since Open.
func (s *Store) Stats() Stats {
	return Stats{Bytes: s.size.Load(), Appends: s.appends.Load()}
}

func validateRepo(repo string) error {
	if repo == "" {
		return fmt.Errorf("findex: empty repo id")
	}
	if strings.ContainsRune(repo, 0) {
		return fmt.Errorf("findex: repo id contains NUL")
	}
	if len(repo) > 200 {
		return fmt.Errorf("findex: repo id longer than 200 bytes")
	}
	return nil
}

// Append persists the run as one log frame, assigning the repo's next
// sequence number (and stamping Time if unset). The run is visible to
// queries once its frame is written, before it is durable; Append
// returning nil means durable. Concurrent appenders share fsyncs.
func (s *Store) Append(run Run) (uint64, error) {
	if err := validateRepo(run.Repo); err != nil {
		return 0, err
	}
	if run.Time == 0 {
		run.Time = time.Now().Unix()
	}
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return 0, s.err
	}
	// Only appenders write the table, and they hold mu.
	run.Seq = uint64(len(s.t.byRepo[run.Repo])) + 1
	data, err := json.Marshal(&run)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	r := newRow(&run)
	r.off = s.size.Load()
	s.buf = appendFrame(s.buf[:0], r, data)
	r.n = int64(len(s.buf))
	if _, err := s.writeAt(s.buf, r.off); err != nil {
		s.err = fmt.Errorf("%w: write: %v", errFailed, err)
		s.mu.Unlock()
		return 0, s.err
	}
	end := r.off + r.n
	s.size.Store(end)
	s.tmu.Lock()
	s.t.add(r)
	s.tmu.Unlock()
	s.appends.Add(1)
	s.mu.Unlock()
	if err := s.syncTo(end); err != nil {
		return 0, err
	}
	return run.Seq, nil
}

// syncTo makes every byte below end durable. Concurrent appenders share
// fsyncs: whoever holds syncMu syncs the whole log, covering everyone who
// wrote before the sync started.
func (s *Store) syncTo(end int64) error {
	if s.synced.Load() >= end {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced.Load() >= end {
		return nil // a concurrent appender's fsync already covered us
	}
	covered := s.size.Load()
	if err := s.sync(); err != nil {
		err = fmt.Errorf("%w: fsync: %v", errFailed, err)
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	s.synced.Store(covered)
	return nil
}

// Get fetches one run by (repo, seq).
func (s *Store) Get(repo string, seq uint64) (*Run, bool, error) {
	s.tmu.RLock()
	runs := s.t.byRepo[repo]
	var r *row
	if seq >= 1 && seq <= uint64(len(runs)) {
		r = runs[seq-1]
	}
	s.tmu.RUnlock()
	if r == nil {
		return nil, false, nil
	}
	run := new(Run)
	if err := s.read(r, run); err != nil {
		return nil, false, err
	}
	return run, true, nil
}

// LastSeq returns the highest sequence number assigned for repo (0 if none).
func (s *Store) LastSeq(repo string) (uint64, error) {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	return uint64(len(s.t.byRepo[repo])), nil
}

// read loads r's frame, checks its CRC and decodes the run JSON into run.
func (s *Store) read(r *row, run *Run) error {
	frame := make([]byte, r.n)
	if _, err := s.f.ReadAt(frame, r.off); err != nil {
		return fmt.Errorf("findex: run %s/%d: %w", r.repo, r.seq, err)
	}
	data, err := frameJSON(frame)
	if err == nil {
		err = json.Unmarshal(data, run)
	}
	if err != nil {
		return fmt.Errorf("findex: run %s/%d at offset %d: %w", r.repo, r.seq, r.off, err)
	}
	return nil
}

// row is one run's entry in the run table: every field the filter and the
// sort read, decoded from the frame's compact header, plus where the frame
// sits in the log.
type row struct {
	repo     string
	seq      uint64
	time     int64
	score    float64
	hasScore bool
	total    int
	maxSev   findings.Severity
	cwes     []cweCount // sorted by id
	files    []string   // distinct finding files, sorted
	first    string     // the ORDER BY file key (see newRow)

	off, n int64 // frame offset and length
}

type cweCount struct {
	id    uint32
	count int
}

// count is the run's exact finding count for one CWE.
func (r *row) count(id uint32) int {
	for _, c := range r.cwes {
		if c.id == id {
			return c.count
		}
	}
	return 0
}

// hasFile reports whether some finding of the run is in file.
func (r *row) hasFile(file string) bool {
	i := sort.SearchStrings(r.files, file)
	return i < len(r.files) && r.files[i] == file
}

// newRow derives a run's table entry (without its frame position).
func newRow(run *Run) *row {
	r := &row{
		repo: run.Repo, seq: run.Seq, time: run.Time, score: run.Score,
		hasScore: run.HasScore, total: run.Total, maxSev: run.MaxSeverity,
	}
	for id, n := range run.CountsByCWE {
		r.cwes = append(r.cwes, cweCount{id, n})
	}
	sort.Slice(r.cwes, func(i, j int) bool { return r.cwes[i].id < r.cwes[j].id })
	seen := make(map[string]bool)
	for _, f := range run.Findings {
		if !seen[f.File] {
			seen[f.File] = true
			r.files = append(r.files, f.File)
		}
		// The ORDER BY file key. Any name replaces a current "", so the
		// key depends on finding order around empty names; it is kept
		// exactly so that ORDER BY file answers stay the same.
		if r.first == "" || f.File < r.first {
			r.first = f.File
		}
	}
	sort.Strings(r.files)
	return r
}

// table is the in-memory run table: every run's row, indexed by the access
// paths the planner chooses between. Every list is in append order except
// byTime, which is ordered by time.
type table struct {
	all    []*row
	byRepo map[string][]*row // in seq order: byRepo[repo][seq-1]
	byCWE  map[uint32][]*row // runs with count > 0
	bySev  map[findings.Severity][]*row
	byFile map[string][]*row
	byTime []*row
}

func newTable() table {
	return table{
		byRepo: make(map[string][]*row),
		byCWE:  make(map[uint32][]*row),
		bySev:  make(map[findings.Severity][]*row),
		byFile: make(map[string][]*row),
	}
}

// add indexes r; the caller holds the table's write lock.
func (t *table) add(r *row) {
	t.all = append(t.all, r)
	t.byRepo[r.repo] = append(t.byRepo[r.repo], r)
	for _, c := range r.cwes {
		if c.count > 0 {
			t.byCWE[c.id] = append(t.byCWE[c.id], r)
		}
	}
	t.bySev[r.maxSev] = append(t.bySev[r.maxSev], r)
	for _, f := range r.files {
		t.byFile[f] = append(t.byFile[f], r)
	}
	// Runs usually arrive in time order, so this is an append.
	i := sort.Search(len(t.byTime), func(i int) bool { return t.byTime[i].time > r.time })
	t.byTime = append(t.byTime, nil)
	copy(t.byTime[i+1:], t.byTime[i:])
	t.byTime[i] = r
}
