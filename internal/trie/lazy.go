package trie

// Lazy segment loading: serve a snapshot bigger than RAM with
// O(touched-shards) time-to-first-query.
//
// OpenLazy splits the streaming load (ReadFrom) into two phases:
//
//   - The *eager phase* reads only what every query needs up front: the
//     header, the full dictionary (interned in ID order, exactly like
//     ReadFrom), a segment *directory* of {offset, length, CRC} triples —
//     the bodies themselves are skipped, not read — and the complete
//     trailing section stream, with the same torn-tail recovery contract
//     as the streaming loader. Journal ops are decoded and validated in
//     full, their new feature keys interned in the exact order a live
//     replay would intern them, and the ops are projected into per-shard
//     pending overlays.
//   - The *lazy phase* is demand paging: the first GetByID probe into a
//     shard faults its segment in — one positioned read of the body,
//     CRC-checked and decoded only then — and replays the shard's pending
//     overlay through the same Mutation.Apply path live mutation uses, so
//     the resident shard is bit-identical to what the eager loader would
//     have produced. The replay runs once per shard: its outcome is kept
//     as a compact patch (post-replay containers for exactly the features
//     the overlay touches), so a shard that is evicted and re-faulted
//     re-reads and re-verifies its segment but applies the patch instead
//     of replaying the journal again. A byte-budgeted evictor returns the
//     least recently used shards to disk.
//
// Error placement moves with the work: base damage that the streaming
// loader reports at load time (a bad segment CRC, a corrupt posting list)
// surfaces from OpenLazy only when it is structural to the directory
// (truncated bodies, bad lengths) and otherwise at fault-in, wrapped in
// ErrCorrupt, poisoning only the touched shard. Read paths that cannot
// return an error (GetByID) panic with *ShardFaultError; the engine's
// query panic containment converts that into a query error.
//
// Mutation, persistence and whole-store accounting force-materialise
// first (Materialize / ensureMaterialized): every shard is faulted in and
// the trie becomes an ordinary eager trie — a Materialize'd lazy load is
// observationally identical to ReadFrom, including re-Save bytes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/features"
)

// RandomAccessFile is the reader shape the lazy loader needs: positioned
// reads plus a fixed length. persistio.RandomAccess satisfies it, as do
// *io.SectionReader and *bytes.Reader. The caller owns the lifetime: src
// must stay open for as long as the trie serves lazily (safe to release
// once Materialize has returned nil).
type RandomAccessFile interface {
	io.ReaderAt
	Size() int64
}

// LazyOptions configures OpenLazy.
type LazyOptions struct {
	// Workers is the decode parallelism used by Materialize (≤ 0 selects
	// GOMAXPROCS); individual fault-ins are single-shard and unaffected.
	Workers int
	// Strict fails the open on *any* structural damage, including a torn
	// trailing journal section the default mode would recover from.
	Strict bool
	// BudgetBytes bounds the resident shards' decoded footprint; once
	// exceeded, fault-ins evict least-recently-used shards until back
	// under budget (the shard just faulted is never the victim, so the
	// resident set holds at least one shard — a single shard larger than
	// the budget stays resident alone). 0 means unbounded.
	BudgetBytes int64
}

// Residency reports a trie's lazy-loading state. The zero value (Lazy
// false) means the trie was not lazily opened.
type Residency struct {
	Lazy           bool
	TotalShards    int
	ResidentShards int
	ResidentBytes  int64
	BudgetBytes    int64
	Faults         int64 // segment fault-ins, including refaults after eviction
	Evictions      int64
	OverlayReplays int64 // journal-overlay replays (once per journaled shard; refaults reuse the cached patch)
	Materialized   bool
}

// ShardFaultError is the panic payload of a lazy read path that cannot
// return an error (GetByID, Walk postings): faulting the shard's segment
// in failed. Shard is -1 when the failure was a whole-trie materialise.
type ShardFaultError struct {
	Shard int
	Err   error
}

func (e *ShardFaultError) Error() string {
	if e.Shard < 0 {
		return fmt.Sprintf("trie: lazy materialize: %v", e.Err)
	}
	return fmt.Sprintf("trie: shard %d fault-in: %v", e.Shard, e.Err)
}

func (e *ShardFaultError) Unwrap() error { return e.Err }

// lazySeg is one segment-directory entry: where a shard's body lives.
type lazySeg struct {
	off int64 // absolute body offset within src
	len int   // body length
	crc uint32
}

// shardResident is one faulted-in shard. Immutable once published, so an
// in-flight reader holding it across an eviction keeps consistent data.
type shardResident struct {
	posts   map[features.FeatureID]PostingList
	drained []features.FeatureID // features the overlay replay drained (dead)
	bytes   int64                // decoded footprint, SizeBytes accounting
}

// overlayPatch is the cached outcome of a shard's one-time journal-overlay
// replay: the post-replay containers of exactly the features the overlay
// ops touch (set), the touched features the replay drained away (del), and
// the dead-set contribution. Applying it to a freshly decoded segment is
// O(touched features) and lands on the same state the replay produced —
// legal because overlays never change after OpenLazy (mutation goes
// through Materialize first) and the containers are immutable once a
// resident is published. If overlays ever become mutable on a live lazy
// trie, the patch must be dropped wherever they change.
type overlayPatch struct {
	set     map[features.FeatureID]PostingList
	del     []features.FeatureID
	drained []features.FeatureID
}

// lazyShard is one shard's residency slot.
type lazyShard struct {
	val     atomic.Pointer[shardResident] // nil = cold (on disk)
	mu      sync.Mutex                    // serialises fault-in of this shard
	lastUse atomic.Int64                  // clock tick of the last probe
	replay  *overlayPatch                 // guarded by mu: set by the first overlay replay
}

// lazyState is everything OpenLazy defers: the mapped source, the segment
// directory, the per-shard journal overlays, and the residency table.
type lazyState struct {
	src      RandomAccessFile
	dict     *features.Dict
	dir      []lazySeg
	overlays [][]mutOp // per-shard projected journal ops, replay order
	remap    []features.FeatureID
	version  uint64
	policy   ContainerPolicy
	budget   int64
	workers  int
	mask     uint32

	shards []lazyShard
	clock  atomic.Int64
	matMu  sync.Mutex // serialises Materialize

	// mu guards the accounting below and every val.Store (publish and
	// evict), so resident counters never drift from the table.
	mu           sync.Mutex
	resBytes     int64
	resShards    int
	faults       int64
	evictions    int64
	replays      int64 // actual overlay replays (not patch applications)
	sealed       bool  // Materialize under way/done: eviction disabled
	materialized bool
}

// raScanner adapts a RandomAccessFile to the byteScanner shape the header
// and section decoders consume, with O(1) Skip over segment bodies — the
// eager phase touches header + directory + sections, never the bodies.
type raScanner struct {
	src  RandomAccessFile
	size int64
	abs  int64 // absolute offset of buf[pos], the next unconsumed byte
	buf  []byte
	pos  int
	err  error // sticky non-EOF read error
}

const raChunk = 64 << 10

func newRAScanner(src RandomAccessFile) *raScanner {
	return &raScanner{src: src, size: src.Size()}
}

// Offset returns the number of bytes consumed (read or skipped) so far.
func (r *raScanner) Offset() int64 { return r.abs }

func (r *raScanner) fill() error {
	if r.pos < len(r.buf) {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if r.abs >= r.size {
		return io.EOF
	}
	n := min(int64(raChunk), r.size-r.abs)
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	m, err := r.src.ReadAt(r.buf[:n], r.abs)
	r.buf = r.buf[:m]
	r.pos = 0
	if m > 0 {
		if err != nil && err != io.EOF {
			r.err = err // deliver the bytes we have; fail on the next fill
		}
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	r.err = err
	return err
}

func (r *raScanner) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := r.fill(); err != nil {
		return 0, err
	}
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	r.abs += int64(n)
	return n, nil
}

func (r *raScanner) ReadByte() (byte, error) {
	if err := r.fill(); err != nil {
		return 0, err
	}
	b := r.buf[r.pos]
	r.pos++
	r.abs++
	return b, nil
}

// Skip advances past n bytes without reading them (beyond whatever is
// already buffered). Skipping past EOF is legal; the next read fails.
func (r *raScanner) Skip(n int64) {
	if avail := int64(len(r.buf) - r.pos); n <= avail {
		r.pos += int(n)
	} else {
		r.buf = r.buf[:0]
		r.pos = 0
	}
	r.abs += n
}

// OpenLazy replaces the trie's contents with a snapshot opened for lazy
// segment loading: the eager phase above runs now, segment bodies decode
// on first touch. Contract mirrors ReadFromOptions — same dictionary
// interning, same saved-layout adoption, same torn-tail recovery and byte
// count (the count covers the whole consumed prefix, including a
// discarded tail) — except that base damage *inside* a segment body
// (CRC, posting structure) surfaces at fault-in rather than here.
//
// Two snapshot shapes cannot load lazily and transparently fall back to a
// full eager decode over src: version-1 files (no section stream) and
// loads into a non-empty dictionary (the ID remap breaks the segment ↔
// shard correspondence fault-in relies on). Either way the returned
// values are exactly what ReadFromOptions would report.
//
// The trie adopts the *saved* shard layout; Reshard (which would
// materialise anyway) is the override point. src must remain readable
// until Materialize returns nil.
func (t *Trie) OpenLazy(src RandomAccessFile, opt LazyOptions) (int64, *TailRecovery, error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	fullDecode := func() (int64, *TailRecovery, error) {
		return t.ReadFromOptions(io.NewSectionReader(src, 0, src.Size()), LoadOptions{Workers: opt.Workers, Strict: opt.Strict})
	}

	ra := newRAScanner(src)
	var magic [len(persistMagic)]byte
	if _, err := io.ReadFull(ra, magic[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic[:]) != persistMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	version, err := binary.ReadUvarint(ra)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: reading version: %v", ErrCorrupt, err)
	}
	if version < 1 || version > persistVersion {
		return 0, nil, fmt.Errorf("trie: snapshot version %d unsupported (this build reads ≤ %d)", version, persistVersion)
	}
	if version < 2 {
		return fullDecode()
	}
	savedShards, err := binary.ReadUvarint(ra)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: reading shard count: %v", ErrCorrupt, err)
	}
	k := int(savedShards)
	if k < 1 || k > maxShards || k&(k-1) != 0 {
		return 0, nil, fmt.Errorf("%w: shard count %d not a power of two in [1, %d]", ErrCorrupt, k, maxShards)
	}

	// Dictionary: intern the saved keys in ID order, exactly like ReadFrom.
	// A non-identity remap (pre-populated dictionary) breaks the segment ↔
	// shard correspondence, so bail out to the streaming loader — interning
	// is idempotent, so the restart re-interns the same keys harmlessly.
	nKeys, err := binary.ReadUvarint(ra)
	if err != nil || nKeys > maxDictLen {
		return 0, nil, fmt.Errorf("%w: dictionary size", ErrCorrupt)
	}
	var kbuf []byte
	for i := uint64(0); i < nKeys; i++ {
		klen, err := binary.ReadUvarint(ra)
		if err != nil || klen > maxKeyLen {
			return 0, nil, fmt.Errorf("%w: dictionary key length", ErrCorrupt)
		}
		if cap(kbuf) < int(klen) {
			kbuf = make([]byte, klen)
		}
		kbuf = kbuf[:klen]
		if _, err := io.ReadFull(ra, kbuf); err != nil {
			return 0, nil, fmt.Errorf("%w: reading dictionary key: %v", ErrCorrupt, err)
		}
		if t.dict.Intern(string(kbuf)) != features.FeatureID(i) {
			return fullDecode()
		}
	}

	// Segment directory: frame fields only, bodies skipped. Bounds-check
	// every body against the source length so base truncation fails here —
	// the streaming loader's strictness — not as a spurious tail recovery.
	dir := make([]lazySeg, k)
	for s := 0; s < k; s++ {
		segLen, err := binary.ReadUvarint(ra)
		if err != nil || segLen > maxSegmentLen {
			return 0, nil, fmt.Errorf("%w: segment %d length", ErrCorrupt, s)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(ra, crcBuf[:]); err != nil {
			return 0, nil, fmt.Errorf("%w: segment %d checksum: %v", ErrCorrupt, s, err)
		}
		off := ra.Offset()
		if off+int64(segLen) > src.Size() {
			return 0, nil, fmt.Errorf("%w: segment %d body: truncated", ErrCorrupt, s)
		}
		dir[s] = lazySeg{off: off, len: int(segLen), crc: binary.LittleEndian.Uint32(crcBuf[:])}
		ra.Skip(int64(segLen))
	}

	// Section stream: identical scan and recovery semantics to readFrom.
	type journalRec struct {
		stamp JournalStamp
		ops   []mutOp
	}
	var journals []journalRec
	var rec *TailRecovery
	committed := ra.Offset()
	fail := func(dropped []byte, cause error) error {
		if opt.Strict {
			return cause
		}
		rec = &TailRecovery{CommittedBytes: committed, DroppedOps: journalOpCount(dropped)}
		return nil
	}
	for rec == nil {
		tag, err := ra.ReadByte()
		if err != nil {
			if err := fail(nil, fmt.Errorf("%w: reading section tag: %v", ErrCorrupt, err)); err != nil {
				return 0, nil, err
			}
			break
		}
		if tag == sectionEnd {
			break
		}
		if tag != sectionJournal {
			if err := fail(nil, fmt.Errorf("%w: unknown section tag %q", ErrCorrupt, tag)); err != nil {
				return 0, nil, err
			}
			break
		}
		body, partial, err := readSectionPartial(ra, "journal")
		if err != nil {
			if err := fail(partial, err); err != nil {
				return 0, nil, err
			}
			break
		}
		stamp, ops, err := decodeJournalBody(body)
		if err != nil {
			if err := fail(body, err); err != nil {
				return 0, nil, err
			}
			break
		}
		journals = append(journals, journalRec{stamp: stamp, ops: ops})
		committed = ra.Offset()
	}
	consumed := ra.Offset()
	if rec != nil {
		// The whole tail beyond the committed prefix is untrustworthy; the
		// streaming loader consumes and discards it, so report the same.
		rec.DiscardedBytes = src.Size() - committed
		consumed = src.Size()
	}

	// Pre-intern the journals' feature keys in the exact order a live
	// replay's Mutation.Apply would intern them (append inserts, then the
	// re-homed inserts of a swap-removal), so journal-new features get the
	// same FeatureIDs the eager loader assigns — which is also what routes
	// them to the right overlay shard.
	for _, j := range journals {
		for _, op := range j.ops {
			if op.kind == opAppend || (op.kind == opRemove && op.swapped != op.graph) {
				for _, f := range op.feats {
					t.dict.Intern(f.Key)
				}
			}
		}
	}
	mask := uint32(k - 1)
	overlays := make([][]mutOp, k)
	splitFeats := func(feats []GraphFeature) map[int][]GraphFeature {
		by := make(map[int][]GraphFeature)
		for _, f := range feats {
			s := int(uint32(t.dict.Intern(f.Key)) & mask)
			by[s] = append(by[s], f)
		}
		return by
	}
	for _, j := range journals {
		for _, op := range j.ops {
			switch op.kind {
			case opAppend:
				for s, fs := range splitFeats(op.feats) {
					overlays[s] = append(overlays[s], mutOp{kind: opAppend, graph: op.graph, swapped: op.graph, feats: fs})
				}
			case opRemove:
				// Per-feature effects are local to the feature's shard, so
				// the op projects exactly: scrub keys and swapped-graph
				// re-homes are filtered by shard, order preserved. Scrub
				// keys absent from the dictionary are no-ops either way.
				var featsBy map[int][]GraphFeature
				if op.swapped != op.graph {
					featsBy = splitFeats(op.feats)
				}
				scrubBy := make(map[int][]string)
				for _, key := range op.scrub {
					if id, ok := t.dict.Lookup(key); ok {
						s := int(uint32(id) & mask)
						scrubBy[s] = append(scrubBy[s], key)
					}
				}
				for s := 0; s < k; s++ {
					fs, sc := featsBy[s], scrubBy[s]
					if len(fs) == 0 && len(sc) == 0 {
						continue
					}
					overlays[s] = append(overlays[s], mutOp{kind: opRemove, graph: op.graph, swapped: op.swapped, feats: fs, scrub: sc})
				}
			}
		}
	}

	remap := make([]features.FeatureID, nKeys)
	for i := range remap {
		remap[i] = features.FeatureID(i)
	}
	ls := &lazyState{
		src:      src,
		dict:     t.dict,
		dir:      dir,
		overlays: overlays,
		remap:    remap,
		version:  version,
		policy:   t.policy,
		budget:   opt.BudgetBytes,
		workers:  opt.Workers,
		mask:     mask,
		shards:   make([]lazyShard, k),
	}

	// Install placeholder shards (replaced by Materialize; Walk/NodeCount
	// materialise first).
	shards := make([]shard, k)
	for i := range shards {
		shards[i].posts = make(map[features.FeatureID]PostingList)
	}
	t.shards = shards
	t.mask = mask
	t.dead = nil
	t.recovered = rec
	t.stamp = nil
	if len(journals) > 0 {
		last := journals[len(journals)-1].stamp
		t.stamp = &last
	}
	t.lazyOrigin = ls
	t.lazyLive.Store(ls)
	return consumed, rec, nil
}

// get serves one probe from the resident table, faulting the shard in on
// first touch. Fault failure panics with *ShardFaultError (GetByID cannot
// return an error); the engine's query panic containment converts it.
func (ls *lazyState) get(id features.FeatureID) PostingList {
	s := int(uint32(id) & ls.mask)
	sh := &ls.shards[s]
	sh.lastUse.Store(ls.clock.Add(1))
	if res := sh.val.Load(); res != nil {
		return res.posts[id]
	}
	res, err := ls.faultIn(s)
	if err != nil {
		panic(&ShardFaultError{Shard: s, Err: err})
	}
	return res.posts[id]
}

// faultIn loads shard s's segment: positioned read, CRC check, decode,
// overlay replay, publish. Failure leaves the shard cold and poisons
// nothing else; a later touch retries from scratch.
func (ls *lazyState) faultIn(s int) (*shardResident, error) {
	sh := &ls.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if res := sh.val.Load(); res != nil {
		return res, nil
	}
	seg := ls.dir[s]
	body := make([]byte, seg.len)
	if seg.len > 0 {
		if n, err := ls.src.ReadAt(body, seg.off); n < len(body) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("trie: shard %d segment read: %w", s, err)
		}
	}
	if crc32.ChecksumIEEE(body) != seg.crc {
		return nil, fmt.Errorf("%w: segment %d CRC mismatch", ErrCorrupt, s)
	}
	posts := make(map[features.FeatureID]PostingList)
	if err := decodeSegment(body, posts, ls.remap, ls.mask, uint32(s), ls.version, ls.policy); err != nil {
		return nil, fmt.Errorf("segment %d: %w", s, err)
	}
	res := &shardResident{posts: posts}
	replayed := false
	if ops := ls.overlays[s]; len(ops) > 0 {
		if p := sh.replay; p != nil {
			// Refault after eviction: the overlay was already replayed once
			// and cannot have changed since OpenLazy, so patch the fresh
			// decode instead of replaying the journal ops again.
			for id, pl := range p.set {
				posts[id] = pl
			}
			for _, id := range p.del {
				delete(posts, id)
			}
			res.drained = p.drained
		} else {
			// First fault: replay the shard's pending overlay through the
			// live mutation path against a single-shard scratch trie (mask 0
			// routes every projected feature to its slot 0), so the resident
			// state is bit-identical to an eager load's journal replay. Apply
			// is copy-on-write, so `posts` survives as the pre-replay base
			// the patch below is diffed against.
			tmp := &Trie{dict: ls.dict, shards: []shard{{posts: posts}}, policy: ls.policy}
			nt := (&Mutation{base: tmp, ops: ops}).Apply()
			res.posts = nt.shards[0].posts
			for id := range nt.dead {
				res.drained = append(res.drained, id)
			}
			sh.replay = overlayPatchOf(ls.dict, ops, res)
			replayed = true
		}
	}
	res.bytes = 48 // shard header, same accounting as SizeBytes
	for _, pl := range res.posts {
		res.bytes += 48 + int64(pl.SizeBytes())
	}

	ls.mu.Lock()
	sh.val.Store(res)
	ls.resBytes += res.bytes
	ls.resShards++
	ls.faults++
	if replayed {
		ls.replays++
	}
	if ls.budget > 0 && !ls.sealed {
		ls.evictLocked(s)
	}
	ls.mu.Unlock()
	return res, nil
}

// overlayPatchOf diffs one replay's outcome down to a patch. The touched
// set is read off the ops themselves — append/re-home features were
// pre-interned by OpenLazy and scrub keys were projected only when the
// dictionary knows them, so Lookup resolves everything the replay could
// have edited; a touched feature absent from the post-replay map was
// deleted (drained, or scrubbed before it ever resurrected).
func overlayPatchOf(dict *features.Dict, ops []mutOp, res *shardResident) *overlayPatch {
	touched := make(map[features.FeatureID]struct{})
	note := func(key string) {
		if id, ok := dict.Lookup(key); ok {
			touched[id] = struct{}{}
		}
	}
	for _, op := range ops {
		for _, f := range op.feats {
			note(f.Key)
		}
		for _, key := range op.scrub {
			note(key)
		}
	}
	p := &overlayPatch{set: make(map[features.FeatureID]PostingList, len(touched)), drained: res.drained}
	for id := range touched {
		if pl, ok := res.posts[id]; ok {
			p.set[id] = pl
		} else {
			p.del = append(p.del, id)
		}
	}
	return p
}

// evictLocked (ls.mu held) returns least-recently-used shards to disk
// until the resident footprint is back under budget. The shard just
// faulted (keep, -1 for none) is exempt, so progress is guaranteed and at
// least one shard stays resident. Evicted *shardResident values stay
// valid for readers that already hold them — eviction only unpublishes.
func (ls *lazyState) evictLocked(keep int) {
	for ls.resBytes > ls.budget && ls.resShards > 1 {
		victim, oldest := -1, int64(0)
		for i := range ls.shards {
			if i == keep || ls.shards[i].val.Load() == nil {
				continue
			}
			if u := ls.shards[i].lastUse.Load(); victim == -1 || u < oldest {
				victim, oldest = i, u
			}
		}
		if victim == -1 {
			return
		}
		res := ls.shards[victim].val.Swap(nil)
		ls.resBytes -= res.bytes
		ls.resShards--
		ls.evictions++
	}
}

// FaultInShard forces shard s resident (tests and warm-up). No-op with a
// nil error on an eager or already-materialised trie.
func (t *Trie) FaultInShard(s int) error {
	ls := t.lazyLive.Load()
	if ls == nil {
		return nil
	}
	if s < 0 || s >= len(ls.shards) {
		return fmt.Errorf("trie: shard %d out of range [0, %d)", s, len(ls.shards))
	}
	ls.shards[s].lastUse.Store(ls.clock.Add(1))
	_, err := ls.faultIn(s)
	return err
}

// Materialize faults every shard in and converts the trie into an
// ordinary eager one — afterwards it is observationally identical to a
// ReadFrom of the same snapshot (answers, Walk order, NodeCount,
// SizeBytes, re-Save bytes) and src is no longer needed.
// Mutation and persistence call this implicitly. Concurrent readers keep
// being served from the resident table until the switch is published. On
// error (a corrupt or unreadable segment) the trie stays lazy and
// serviceable for every healthy shard. No-op on an eager trie.
func (t *Trie) Materialize() error {
	ls := t.lazyLive.Load()
	if ls == nil {
		return nil
	}
	ls.matMu.Lock()
	defer ls.matMu.Unlock()
	if t.lazyLive.Load() == nil {
		return nil // lost the race to a concurrent Materialize
	}
	ls.mu.Lock()
	ls.sealed = true // no eviction while we pin everything resident
	ls.mu.Unlock()
	k := len(ls.shards)
	residents := make([]*shardResident, k)
	errs := make([]error, k)
	ParallelFor(k, ls.workers, func(_ int, claim func() int) {
		for s := claim(); s >= 0; s = claim() {
			residents[s], errs[s] = ls.faultIn(s)
		}
	})
	for s, err := range errs {
		if err != nil {
			ls.mu.Lock()
			ls.sealed = false
			if ls.budget > 0 {
				ls.evictLocked(-1)
			}
			ls.mu.Unlock()
			return fmt.Errorf("trie: materialize shard %d: %w", s, err)
		}
	}
	// Install the resident maps. Concurrent readers still route through
	// the resident table until the Store(nil) below publishes the eager
	// trie — the atomic pointer is the release/acquire edge covering all
	// these plain writes.
	t.dead = nil
	for s := 0; s < k; s++ {
		t.shards[s].posts = residents[s].posts
		for _, id := range residents[s].drained {
			if t.dead == nil {
				t.dead = make(map[features.FeatureID]struct{})
			}
			t.dead[id] = struct{}{}
		}
	}
	ls.mu.Lock()
	ls.materialized = true
	ls.mu.Unlock()
	t.lazyLive.Store(nil)
	return nil
}

// ensureMaterialized is the guard on read paths that need whole-store
// state (Walk, Len, SizeBytes, the build/mutation paths). It cannot
// return an error, so a failed materialise panics with *ShardFaultError;
// operations routed through the engine are panic-contained there.
func (t *Trie) ensureMaterialized() {
	if t.lazyLive.Load() == nil {
		return
	}
	if err := t.Materialize(); err != nil {
		panic(&ShardFaultError{Shard: -1, Err: err})
	}
}

// Residency reports the lazy-loading state (zero value for a trie that
// was never lazily opened). Counters keep reporting after Materialize.
func (t *Trie) Residency() Residency {
	ls := t.lazyOrigin
	if ls == nil {
		return Residency{}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return Residency{
		Lazy:           true,
		TotalShards:    len(ls.shards),
		ResidentShards: ls.resShards,
		ResidentBytes:  ls.resBytes,
		BudgetBytes:    ls.budget,
		Faults:         ls.faults,
		Evictions:      ls.evictions,
		OverlayReplays: ls.replays,
		Materialized:   ls.materialized,
	}
}
