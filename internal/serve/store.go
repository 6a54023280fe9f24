package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Store is the durable half of the content-addressed cache: every accepted
// upload is persisted under its SHA-256 digest so a restarted daemon can
// replay `?trace=<digest>` requests without the client re-uploading. The
// memory LRU (Cache) stays the hot path; the store is its backing tier.
//
// Layout under the root directory:
//
//	objects/<digest>          raw uploaded bytes, named by their SHA-256
//	quarantine/<digest>.<n>   files whose content no longer hashes to
//	                          their name, moved aside for forensics
//	tmp/                      staging area for atomic writes
//
// Writes are torn-write-safe: bytes go to a temp file in tmp/, are
// fsynced, and only then renamed into objects/ (rename is atomic on
// POSIX), followed by a directory fsync so the entry survives a crash
// right after the response is sent. Reads re-verify the content hash
// against the file name every time; a mismatch (bit rot, a torn write
// that somehow survived, operator error) quarantines the file — never
// deletes it — and counts it, so corruption is observable and debuggable
// instead of silently served.
type Store struct {
	root    string
	corrupt atomic.Int64 // entries quarantined after failing verification
	putErrs atomic.Int64 // durability writes that failed (entry served from memory only)
}

// ErrCorrupt reports that a store entry failed content verification and
// was quarantined.
var ErrCorrupt = errors.New("store entry failed digest verification")

// OpenStore opens (creating if needed) a durable store rooted at dir.
// A root that cannot be created or written is an error — the daemon must
// refuse to start rather than silently run without durability.
func OpenStore(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, sub := range []string{s.objectsDir(), s.quarantineDir(), s.tmpDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Permission bits alone don't prove writability (notably for root),
	// so probe with a real create in the staging area.
	probe, err := os.CreateTemp(s.tmpDir(), "probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: root %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return s, nil
}

func (s *Store) objectsDir() string    { return filepath.Join(s.root, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }
func (s *Store) tmpDir() string        { return filepath.Join(s.root, "tmp") }

// ObjectPath returns where digest's bytes live on disk (whether or not
// the entry exists). Tests use it to corrupt entries on disk.
func (s *Store) ObjectPath(digest string) string {
	return filepath.Join(s.objectsDir(), digest)
}

// checkDigest rejects anything that is not a lowercase hex SHA-256, which
// also blocks path traversal through the ?trace= query parameter.
func checkDigest(digest string) error {
	if len(digest) != 64 {
		return fmt.Errorf("store: malformed digest %q", digest)
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: malformed digest %q", digest)
		}
	}
	return nil
}

// Put durably stores raw under digest. Storing the same digest twice is a
// no-op (content addressing: same name implies same bytes). The entry is
// on disk and synced when Put returns.
func (s *Store) Put(digest string, raw []byte) error {
	if err := checkDigest(digest); err != nil {
		return err
	}
	dst := s.ObjectPath(digest)
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(s.tmpDir(), digest[:16]+"-*")
	if err != nil {
		return fmt.Errorf("store: staging %s: %w", digest, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", digest, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing %s: %w", digest, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", digest, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: publishing %s: %w", digest, err)
	}
	return syncDir(s.objectsDir())
}

// Get reads digest's bytes back, re-verifying the content hash. A file
// whose bytes no longer hash to its name is quarantined and reported as
// ErrCorrupt; a missing entry is reported as fs.ErrNotExist.
func (s *Store) Get(digest string) ([]byte, error) {
	if err := checkDigest(digest); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(s.ObjectPath(digest))
	if err != nil {
		return nil, err
	}
	if Digest(raw) != digest {
		s.quarantine(digest)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, digest)
	}
	return raw, nil
}

// Has reports whether digest is present on disk (without verifying it).
func (s *Store) Has(digest string) bool {
	if checkDigest(digest) != nil {
		return false
	}
	_, err := os.Stat(s.ObjectPath(digest))
	return err == nil
}

// quarantine moves a failed entry aside under a unique name and counts
// it. Quarantined files are never deleted by the store.
func (s *Store) quarantine(digest string) {
	src := s.ObjectPath(digest)
	for n := 0; ; n++ {
		dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", digest, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(src, dst); err != nil {
			// Move failed (already quarantined by a racing reader, or the
			// file vanished); the corruption is still counted.
			break
		}
		break
	}
	s.corrupt.Add(1)
	syncDir(s.objectsDir())
}

// Recover scans the objects directory at startup: every entry is
// re-verified, corrupt files are quarantined, stray temp files from a
// crashed Put are swept, and the digests that survive are returned so the
// daemon's index can be repopulated.
func (s *Store) Recover() (valid []string, err error) {
	// A crash between CreateTemp and Rename leaves staging files behind;
	// they were never published, so sweeping them is safe.
	if stale, err := os.ReadDir(s.tmpDir()); err == nil {
		for _, de := range stale {
			os.Remove(filepath.Join(s.tmpDir(), de.Name()))
		}
	}
	entries, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return nil, fmt.Errorf("store: scanning objects: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if checkDigest(name) != nil {
			// Not one of ours; leave it alone but don't index it.
			continue
		}
		if _, err := s.Get(name); err != nil {
			continue // corrupt entries were quarantined and counted by Get
		}
		valid = append(valid, name)
	}
	sort.Strings(valid)
	return valid, nil
}

// Len returns the number of (unverified) entries currently on disk.
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		if checkDigest(de.Name()) == nil {
			n++
		}
	}
	return n
}

// CorruptTotal returns how many entries failed verification and were
// quarantined over the store's lifetime.
func (s *Store) CorruptTotal() int64 { return s.corrupt.Load() }

// PutErrorsTotal returns how many durability writes failed (the request
// was still served from memory).
func (s *Store) PutErrorsTotal() int64 { return s.putErrs.Load() }

// notePutError records a failed durability write.
func (s *Store) notePutError() { s.putErrs.Add(1) }

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
