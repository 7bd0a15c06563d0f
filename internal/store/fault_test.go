package store

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"

	"smtmlp"
)

// faultFile wraps the results log and fails the next write after letting
// its first keep bytes through, as a full disk or a short write does.
type faultFile struct {
	*os.File
	fail bool
	keep int
	err  error // nil reports a short write without an error
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.fail {
		return f.File.Write(p)
	}
	f.fail = false
	n, _ := f.File.Write(p[:min(f.keep, len(p))])
	return n, f.err
}

func faultRecord(i int) Record {
	return Record{
		Fingerprint: fmt.Sprintf("fp-%d", i),
		Request:     smtmlp.Request{Workload: smtmlp.Mix("mcf", "galgel"), Policy: smtmlp.MLPFlush},
		Result:      smtmlp.WorkloadResult{Policy: "mlpflush", STP: float64(i)},
	}
}

// TestAppendRecoversFromFailedWrite: after an append whose write fails part
// way (ENOSPC) or comes up short, the partial bytes are rolled back, a later
// append succeeds, and a re-Open loads every committed record.
func TestAppendRecoversFromFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
		err   error
	}{
		{"append-enospc", false, syscall.ENOSPC},
		{"append-short", false, nil},
		{"batch-enospc", true, syscall.ENOSPC},
		{"batch-short", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(faultRecord(0)); err != nil {
				t.Fatal(err)
			}
			f := &faultFile{File: s.results.(*os.File), fail: true, keep: 17, err: tc.err}
			s.results = f

			if tc.batch {
				_, err = s.AppendBatch([]Record{faultRecord(1), faultRecord(2)})
			} else {
				_, err = s.Append(faultRecord(1))
			}
			if err == nil {
				t.Fatal("failed write reported success")
			}
			if tc.err != nil && !errors.Is(err, tc.err) {
				t.Fatalf("error %v does not wrap %v", err, tc.err)
			}
			if s.Has(faultRecord(1).Fingerprint) {
				t.Fatal("failed record indexed")
			}
			if _, err := s.AppendBatch([]Record{faultRecord(3), faultRecord(4)}); err != nil {
				t.Fatalf("append after a failed write: %v", err)
			}
			if _, err := s.Append(faultRecord(1)); err != nil {
				t.Fatalf("retrying the failed record: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("re-open after a failed write: %v", err)
			}
			defer s2.Close()
			var got []string
			for _, rec := range s2.Records() {
				got = append(got, rec.Fingerprint)
			}
			if want := "[fp-0 fp-3 fp-4 fp-1]"; fmt.Sprint(got) != want {
				t.Fatalf("re-opened store holds %v, want %s", got, want)
			}
		})
	}
}

// failTruncate is a results log whose rollback fails as well.
type failTruncate struct{ *faultFile }

func (failTruncate) Truncate(int64) error { return syscall.EIO }

// TestAppendFailsClosedWhenRollbackFails: if the partial bytes cannot be
// truncated away, every later append fails instead of writing behind them.
func TestAppendFailsClosedWhenRollbackFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.results = failTruncate{&faultFile{File: s.results.(*os.File), fail: true, keep: 5, err: syscall.ENOSPC}}
	if _, err := s.Append(faultRecord(0)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first append: %v, want the rollback failure", err)
	}
	if _, err := s.Append(faultRecord(1)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after a failed rollback: %v, want the store failed closed", err)
	}
}
