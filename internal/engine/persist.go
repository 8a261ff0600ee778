// Cache persistence: the engine's synthesis cache can be checkpointed
// to disk and reloaded at boot, so a restarted daemon answers
// previously-synthesized functions warm (internal/cachestore holds the
// format). Snapshots carry core.Fingerprint; a snapshot written by a
// binary with different synthesis behavior is refused wholesale.
package engine

import (
	"io"

	"nanoxbar/internal/cachestore"
	"nanoxbar/internal/core"
)

// WriteCacheSnapshot streams the completed cache entries to w. Entries
// still in flight are skipped — only finished results persist.
func (e *Engine) WriteCacheSnapshot(w io.Writer) (int, error) {
	entries := e.cache.snapshot()
	return len(entries), cachestore.Write(w, core.Fingerprint(), entries)
}

// SaveCacheSnapshot atomically writes the cache to path, returning the
// number of entries persisted.
func (e *Engine) SaveCacheSnapshot(path string) (int, error) {
	entries := e.cache.snapshot()
	return len(entries), cachestore.Save(path, core.Fingerprint(), entries)
}

// ReadCacheSnapshot seeds the cache from a snapshot stream. Existing
// entries win over persisted ones; the returned count is the number of
// entries actually inserted. Loading is additive — it never evicts live
// results, beyond the cache's own capacity bound.
func (e *Engine) ReadCacheSnapshot(r io.Reader) (int, error) {
	_, entries, err := cachestore.Read(r, core.Fingerprint())
	if err != nil {
		return 0, err
	}
	return e.seed(entries), nil
}

// LoadCacheSnapshot seeds the cache from the snapshot at path.
func (e *Engine) LoadCacheSnapshot(path string) (int, error) {
	entries, err := cachestore.Load(path, core.Fingerprint())
	if err != nil {
		return 0, err
	}
	return e.seed(entries), nil
}

func (e *Engine) seed(entries []cachestore.Entry) int {
	n := 0
	for _, en := range entries {
		if e.cache.insert(en.Key, en.Imp) {
			n++
		}
	}
	return n
}
