// Cap journal persistence: the durable, append-only record of every
// cap/uncap the manager performs, replayed at startup so a restarted
// agent re-adopts the caps it owns and releases the ones it no longer
// should hold (see core.CapJournal / core.Manager.Reconcile).
package agent

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// FileCapJournal is a durable core.CapJournal: one JSON entry per
// line, fsynced per append (an actuation record that vanishes in a
// crash defeats the point). Safe for concurrent use.
//
// Its entries are also kept in a core.MemCapJournal, and the file is
// rewritten whenever that copy folds (at core.CapJournalFoldAt
// entries), so the file stays as bounded as the copy. Appends between
// compactions are O(1); compaction is the same atomic
// temp+fsync+rename discipline as core.SaveCheckpoint, so a crash
// mid-compaction leaves the previous journal intact.
type FileCapJournal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	mem  core.MemCapJournal
}

// OpenCapJournal opens (or creates) the journal at path and returns it
// along with the entries recovered from disk, oldest first, for
// replay. Torn or corrupt trailing lines — the crash case — are
// dropped with a count, never an error: recovery must proceed on
// whatever prefix survived.
func OpenCapJournal(path string) (j *FileCapJournal, recovered []core.CapJournalEntry, torn int, err error) {
	if data, rerr := os.ReadFile(path); rerr == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e core.CapJournalEntry
			if uerr := json.Unmarshal(line, &e); uerr != nil {
				torn++
				continue
			}
			recovered = append(recovered, e)
		}
	} else if !os.IsNotExist(rerr) {
		return nil, nil, 0, fmt.Errorf("agent: read cap journal: %w", rerr)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("agent: open cap journal: %w", err)
	}
	j = &FileCapJournal{path: path, f: f}
	for _, e := range recovered {
		_ = j.mem.Append(e)
	}
	if j.mem.Len() < len(recovered) { // the copy folded
		if err := j.compactLocked(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	return j, recovered, torn, nil
}

// Append implements core.CapJournal: one line, synced to disk.
func (j *FileCapJournal) Append(e core.CapJournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("agent: marshal journal entry: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("agent: cap journal closed")
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("agent: append cap journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("agent: sync cap journal: %w", err)
	}
	// The copy folds at core.CapJournalFoldAt entries; a fold that
	// shrank it is the file's cue to compact. (One that did not kept
	// every entry live, which the file already holds.)
	n := j.mem.Len()
	_ = j.mem.Append(e)
	if j.mem.Len() <= n {
		return j.compactLocked()
	}
	return nil
}

// Len returns the number of entries in the journal (post-compaction
// entries only reflect live caps).
func (j *FileCapJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mem.Len()
}

// compactLocked folds the journal down to its live caps (folding an
// already folded copy changes nothing) and atomically replaces the
// file with them. Callers hold j.mu.
func (j *FileCapJournal) compactLocked() error {
	j.mem.Fold()
	compacted := j.mem.Entries()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".capjournal-*.tmp")
	if err != nil {
		return fmt.Errorf("agent: compact cap journal: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	w := bufio.NewWriter(tmp)
	for _, e := range compacted {
		data, err := json.Marshal(e)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("agent: compact cap journal: %w", err)
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			tmp.Close()
			return fmt.Errorf("agent: compact cap journal: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("agent: compact cap journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("agent: compact cap journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("agent: compact cap journal: %w", err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		return fmt.Errorf("agent: publish compacted cap journal: %w", err)
	}
	// Reopen the (renamed-over) file for further appends.
	old := j.f
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("agent: reopen cap journal: %w", err)
	}
	old.Close()
	j.f = f
	return nil
}

// Close flushes and closes the journal file.
func (j *FileCapJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
