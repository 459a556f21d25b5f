// Package goldenstore is the persistent tier of the layered golden
// repository (DESIGN.md §13): an on-disk, content-addressed store of
// encoded golden results keyed by (program hash, seed, budget, tap,
// settle, bypass), sitting below the in-memory tier of offramps.GoldenCache. A
// lookup is memory → disk: a memory miss reads the entry file, and a
// disk miss simulates.
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
// Layout on disk is one directory:
//
//	dir/<key>.golden   one entry per key
//	dir/.put-*         a Put's temp file until its rename
//
// There is no index or snapshot, so processes sharing a directory see
// each other's entries at once. Prune garbage-collects in place:
// `suite -golden-store-gc` drives it with the keep set of keys the run
// actually consulted, removing entries stranded by old specs, seeds, or
// codec versions, corrupt entries, and temp files of crashed writers.
package goldenstore
