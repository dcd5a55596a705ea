package findex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/findings"
)

// runJSON is the byte form an appended run must come back as through Get.
func runJSON(t *testing.T, run *Run) string {
	t.Helper()
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// writeLog appends n synthetic runs to a fresh log at path, closes it, and
// returns the runs (with their seqs) and the log length after each append.
func writeLog(t *testing.T, path string, n int, seed int64) ([]Run, []int64) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	repos := []string{"app-a", "app-b", "app-c"}
	var runs []Run
	var ends []int64
	for i := 0; i < n; i++ {
		run := synthRun(rng, repos[i%len(repos)], i)
		seq, err := s.Append(run)
		if err != nil {
			t.Fatal(err)
		}
		run.Seq = seq
		runs = append(runs, run)
		ends = append(ends, s.Stats().Bytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return runs, ends
}

// TestCrashRecoveryTorture cuts the log where a killed appender could have
// left it — at random offsets, inside the magic, and at every byte offset
// inside the last frame — reopens, and asserts that every acknowledged run
// comes back byte-identical, that no unacknowledged run appears, and that
// an append after recovery survives a second reopen.
func TestCrashRecoveryTorture(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.db")
	runs, ends := writeLog(t, src, 30, 0x5ec)
	log, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0x5ec))
	var cuts []int64
	for off := int64(0); off < int64(len(logMagic)); off++ {
		cuts = append(cuts, off)
	}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, int64(len(logMagic))+rng.Int63n(int64(len(log)-len(logMagic))+1))
	}
	for off := ends[len(ends)-2]; off <= ends[len(ends)-1]; off++ {
		cuts = append(cuts, off)
	}

	path := filepath.Join(dir, "cut.db")
	for _, cut := range cuts {
		if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		acked := sort.Search(len(ends), func(i int) bool { return ends[i] > cut })
		for i, run := range runs {
			got, ok, err := s.Get(run.Repo, run.Seq)
			if err != nil {
				t.Fatalf("cut %d: get %s/%d: %v", cut, run.Repo, run.Seq, err)
			}
			if i < acked && (!ok || runJSON(t, got) != runJSON(t, &runs[i])) {
				t.Fatalf("cut %d: acknowledged run %s/%d lost or changed (ok=%v)", cut, run.Repo, run.Seq, ok)
			}
			if i >= acked && ok {
				t.Fatalf("cut %d: unacknowledged run %s/%d appeared", cut, run.Repo, run.Seq)
			}
		}
		if all, _, err := s.QueryString("", Options{}); err != nil || len(all) != acked {
			t.Fatalf("cut %d: %d runs after recovery, want %d (err %v)", cut, len(all), acked, err)
		}

		extra := NewRun("app-a", "after", &findings.Report{})
		extra.Time = 1
		seq, err := s.Append(extra)
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if want := uint64((acked + 2) / 3); seq != want+1 {
			t.Fatalf("cut %d: append after recovery got seq %d, want %d", cut, seq, want+1)
		}
		extra.Seq = seq
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path)
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		got, ok, err := s.Get("app-a", seq)
		if err != nil || !ok || runJSON(t, got) != runJSON(t, &extra) {
			t.Fatalf("cut %d: run appended after recovery lost by the second reopen (ok=%v err=%v)", cut, ok, err)
		}
		s.Close()
	}
}

// openMustRefuse asserts that Open refuses the log bytes with errCorrupt
// and leaves the file exactly as it was.
func openMustRefuse(t *testing.T, path string, data []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatalf("%s: Open accepted the file", what)
	}
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("%s: Open failed with %v, want a corruption error", what, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("%s: the refused file was modified", what)
	}
}

// TestMidLogCorruptionRefused flips each byte of every frame but the last:
// Open must refuse the log and leave it unchanged rather than truncate
// acknowledged runs away as a torn tail.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.db")
	_, ends := writeLog(t, src, 5, 7)
	log, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bad.db")
	for off := len(logMagic); off < int(ends[len(ends)-2]); off++ {
		bad := bytes.Clone(log)
		bad[off] ^= 0xff
		openMustRefuse(t, path, bad, fmt.Sprintf("byte %d flipped", off))
	}
}

// TestForeignFormatRefused: a file that does not start with the log magic
// — such as the page file of the engine the log replaced — is refused and
// left unchanged.
func TestForeignFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.db")
	pageFile := make([]byte, 8192)
	binary.LittleEndian.PutUint32(pageFile, 0x42444D53) // "SMDB"
	garbage := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(garbage)
	otherVersion := []byte(logMagic)
	otherVersion[len(otherVersion)-2]++
	for name, data := range map[string][]byte{
		"SMDB page file": pageFile,
		"random bytes":   garbage,
		"other version":  otherVersion,
		"one byte":       []byte("x"),
	} {
		openMustRefuse(t, path, data, name)
	}
}

// TestFailedAppendIsSticky injects write and fsync failures through the
// store's file seam: the failing Append errors, every later Append is
// refused, and reopening recovers the acknowledged runs and drops a frame
// the failed write tore.
func TestFailedAppendIsSticky(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected I/O failure")
	rep := &findings.Report{Findings: []findings.Finding{{Rule: "r", CWE: 121, File: "a.c", Severity: findings.SevHigh}}}
	for _, mode := range []string{"torn write", "fsync"} {
		path := filepath.Join(dir, mode+".db")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(NewRun("app", "t", rep)); err != nil {
			t.Fatal(err)
		}
		if mode == "fsync" {
			s.sync = func() error { return injected }
		} else {
			s.writeAt = func(p []byte, off int64) (int, error) {
				n, _ := s.f.WriteAt(p[:len(p)/2], off)
				return n, injected
			}
		}
		if _, err := s.Append(NewRun("app", "t", rep)); err == nil {
			t.Fatalf("%s: append succeeded through an injected failure", mode)
		}
		s.writeAt, s.sync = s.f.WriteAt, s.f.Sync // the disk recovers; the store must not
		for i := 0; i < 3; i++ {
			if _, err := s.Append(NewRun("app", "t", rep)); !errors.Is(err, errFailed) {
				t.Fatalf("%s: append %d after the failure returned %v, want errFailed", mode, i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", mode, err)
		}
		if _, ok, err := s.Get("app", 1); err != nil || !ok {
			t.Fatalf("%s: acknowledged run lost: %v %v", mode, ok, err)
		}
		if seq, err := s.Append(NewRun("app", "t", rep)); err != nil || seq < 2 {
			t.Fatalf("%s: append after reopen: seq %d, %v", mode, seq, err)
		}
		s.Close()
	}
}

// TestSnapshotParityUnderConcurrentWriter runs queries and point reads
// against a writer appending 150 runs. Every answer must be a prefix of
// the appends: the runs' append indexes are exactly 0..k-1, each repo's
// seqs are contiguous from 1, and every returned run decodes. Run under
// -race this also proves readers and the writer share no unsynchronized
// state.
func TestSnapshotParityUnderConcurrentWriter(t *testing.T) {
	s := openTemp(t)
	const n = 150
	const base = 1_700_000_000
	repos := []string{"app-a", "app-b", "app-c"}
	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			run := synthRun(rng, repos[i%len(repos)], i)
			run.Time = base + int64(i) // the append index, to check prefixes
			if _, err := s.Append(run); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	check := func(src string, runs []Run) error {
		times := make([]int64, len(runs))
		next := make(map[string]uint64)
		for i, r := range runs {
			times[i] = r.Time - base
			if r.Seq != next[r.Repo]+1 {
				return fmt.Errorf("%q: %s seq %d follows %d", src, r.Repo, r.Seq, next[r.Repo])
			}
			next[r.Repo] = r.Seq
		}
		if src != `repo = "app-b"` {
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			for i, tm := range times {
				if tm != int64(i) {
					return fmt.Errorf("%q: %d runs are not a prefix of the appends", src, len(runs))
				}
			}
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				for _, src := range []string{"", fmt.Sprintf("time >= %d", base), `repo = "app-b"`} {
					runs, _, err := s.QueryString(src, Options{})
					if err == nil {
						err = check(src, runs)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				last, _ := s.LastSeq("app-c")
				if _, ok, err := s.Get("app-c", last); last > 0 && (err != nil || !ok) {
					t.Errorf("app-c/%d missing after LastSeq reported it: %v", last, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if all, _, err := s.QueryString("", Options{}); err != nil || len(all) != n {
		t.Fatalf("after the writer: %d runs, %v", len(all), err)
	}
}

// TestReopenAfterAbandon drops a handle without closing it, as a killed
// process does, and reopens: every appended run is there, byte-identical.
func TestReopenAfterAbandon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abandon.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	var runs []Run
	for i := 0; i < 200; i++ {
		run := synthRun(rng, "app", i)
		if run.Seq, err = s.Append(run); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := range runs {
		got, ok, err := s2.Get("app", runs[i].Seq)
		if err != nil || !ok || runJSON(t, got) != runJSON(t, &runs[i]) {
			t.Fatalf("app/%d lost or changed across abandon-reopen: %v %v", runs[i].Seq, ok, err)
		}
	}
	if s2.Stats().Bytes != s.Stats().Bytes {
		t.Fatalf("reopen truncated an intact log: %d bytes, wrote %d", s2.Stats().Bytes, s.Stats().Bytes)
	}
}

func TestStatsShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.db")
	_, ends := writeLog(t, path, 10, 5)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Appends != 0 || st.Bytes != ends[len(ends)-1] {
		t.Fatalf("reopened stats %+v, want 0 appends and %d bytes", st, ends[len(ends)-1])
	}
	if _, err := s.Append(NewRun("app", "t", &findings.Report{})); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appends != 1 || st.Bytes != fi.Size() {
		t.Fatalf("stats %+v, want 1 append and the file's %d bytes", st, fi.Size())
	}
}
