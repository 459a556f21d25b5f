// Package goldenstore is the persistent tier of the layered golden
// repository (DESIGN.md §13): an on-disk, content-addressed store of
// encoded golden results keyed by (program hash, seed, budget, capture
// mode), sitting below the in-memory tier of offramps.GoldenCache and
// behind a Bloom existence filter, modeled on the cache → bloom → store
// lookup pipeline of the rr-dns blocklist repository (SNIPPETS.md).
//
// The store never trusts its own bytes: every entry carries a magic,
// format version, its full key, and a SHA-256 payload checksum, and any
// mismatch — torn file, bit rot, stale format, hash collision — is a
// miss, never an error. Writes are crash-safe (temp file + fsync +
// rename into place, the journal pattern from internal/farm), so a
// reader observes an entry either completely or not at all. Payloads are
// opaque here; the Result codec (and its own version) lives with the
// Result type in the root package.
//
// Layout on disk:
//
//	dir/CURRENT        active generation name ("g000001\n"), swapped atomically
//	dir/g000001/<key>.golden
//
// Rebuild writes a filtered copy of every entry into the next
// generation and atomically repoints CURRENT, so compaction is a single
// visible switch: concurrent readers see the old generation or the new
// one, never a mix. `suite -golden-store-gc` drives Rebuild with the
// keep set of keys the run actually consulted, garbage-collecting
// entries stranded by old specs, seeds, or codec versions.
package goldenstore
