// magecache is a GET/SET KV cache front end whose value heap lives in
// far memory: the heap is a paged region managed by internal/upager, so
// the cache's working set occupies a bounded local arena while the long
// tail pages in on demand. It is the repo's end-to-end proof that the
// fault/evict machinery serves real traffic, not just benchmarks.
package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"mage/internal/upager"
)

const pageBytes = 4096

// classSizes are the slab size classes, one per count of cells a page
// holds: for n = 64 down to 1 cells per page, the largest multiple of 8
// that fits n times in a page, duplicates collapsed. The load
// generator's values (64–1023 B) fill 91.8 % of the pages they carve. A
// cell never crosses a page, so a GET pins exactly one page.
var classSizes = [...]int{
	64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160, 168, 176, 184,
	192, 200, 208, 224, 240, 256, 272, 288, 312, 336, 368, 408, 448, 512, 584,
	680, 816, 1024, 1360, 2048, 4096,
}

func classFor(n int) (int, bool) {
	for i, s := range classSizes {
		if n <= s {
			return i, true
		}
	}
	return 0, false
}

// slot names one slab cell in the paged heap.
type slot struct {
	pg  uint32
	off uint16
}

// entry is one index record: where the value lives, how long it is,
// and which steal-FIFO node tracks its cell.
type entry struct {
	pg   uint32
	node uint32 // index into alloc.nodes
	off  uint16
	ln   uint16 // 4096 max fits
	cls  uint8
}

// fifoNode is one link of a class's steal FIFO: the hash of the key
// that owns a published cell, in publication order (the key's index
// entry names the cell and the node). Node 0 is the list's nil.
type fifoNode struct {
	hash       uint64
	prev, next uint32
}

const indexShards = 64

type idxShard struct {
	mu sync.Mutex
	ix index
}

// Cache is the sharded KV index plus the slab allocator over the paged
// value heap.
type Cache struct {
	pager  *upager.Pager
	shards [indexShards]idxShard

	// Slab allocator state. Lock order: alloc.mu and a shard mu are
	// never held together.
	//
	// A cell is in one of three places. Free: on its class's free list.
	// Held: taken off the list (or stolen) by a Set that is writing it, or
	// by a connection that reserved it for a SET it has parsed and not
	// yet executed; the holder alone knows it, and either publishes it or
	// puts it back. Published: named by an index entry and linked, under
	// the hash of that entry's key, into its class's steal FIFO.
	//
	// The steal FIFO is a doubly linked list per class threaded through
	// nodes, one node per published cell, so the bookkeeping is O(live
	// keys) however many SETs have been served. A cell is linked only when
	// it is published, never while it is held: a stealer that finds a
	// head finds a key it can evict now, not a SET that has yet to read
	// its page from far memory, or to be reached on a connection whose
	// peer has stopped reading. An index entry names its node, and
	// ownership follows the entry: whoever removes or replaces an entry
	// under its shard mu owns that entry's node and cell and gives both
	// back under alloc.mu (release). A stealer only peeks at the head; it
	// becomes the owner by deleting the entry that the head's hash and
	// node id name.
	alloc struct {
		mu       sync.Mutex
		free     [len(classSizes)][]slot
		nodes    []fifoNode
		freeNode uint32                  // free nodes, chained through next
		head     [len(classSizes)]uint32 // oldest publication of the class
		tail     [len(classSizes)]uint32
		nextPage uint32
		pages    uint32
	}
	// writing counts, per class, the held cells a Set is writing right
	// now: cells that are about to be published. A stealer that finds the
	// FIFO empty waits for those, and for nothing else.
	writing [len(classSizes)]atomic.Int32

	steals      atomic.Uint64
	stealYields atomic.Uint64
	sets        atomic.Uint64
	gets        atomic.Uint64
	misses      atomic.Uint64
}

// NewCache builds a cache whose value heap is heapPages pages backed by
// b, paged through frames local frames (remote:local = heapPages/frames).
func NewCache(b upager.Backing, heapPages uint64, frames int) (*Cache, error) {
	p, err := upager.New(b, heapPages, frames, upager.Options{PageBytes: pageBytes})
	if err != nil {
		return nil, err
	}
	c := &Cache{pager: p}
	c.alloc.pages = uint32(heapPages)
	c.alloc.nodes = make([]fifoNode, 1)
	return c, nil
}

// Close flushes the paged heap. The backing store stays open.
func (c *Cache) Close() error { return c.pager.Close() }

// Pager exposes the underlying pager (for stats reporting).
func (c *Cache) Pager() *upager.Pager { return c.pager }

// shard picks the index shard of a key that hashes to h.
func (c *Cache) shard(h uint64) *idxShard { return &c.shards[h%indexShards] }

// holdCell takes a cell of class cls for a Set to write. It carves a
// fresh heap page when the free list is empty and steals the oldest
// published cell of the class (FIFO eviction of its key) when the heap
// is exhausted.
func (c *Cache) holdCell(cls int) (slot, error) {
	a := &c.alloc
	for {
		a.mu.Lock()
		if s, ok := c.takeCell(cls); ok {
			c.writing[cls].Add(1)
			a.mu.Unlock()
			return s, nil
		}
		// Heap exhausted: evict the key that owns the oldest cell of
		// this class, which puts the cell on the free list.
		head := a.head[cls]
		if head == 0 {
			// Read under alloc.mu: a Set links its cell under it before it
			// stops counting as writing, so an empty FIFO and a zero here
			// together mean that no cell is on its way.
			writing := c.writing[cls].Load()
			a.mu.Unlock()
			if writing == 0 {
				return slot{}, fmt.Errorf("magecache: heap full and no class-%d cell to steal", classSizes[cls])
			}
			// Every cell of the class is being written: one is published
			// as soon as its Set has its page.
			c.stealYields.Add(1)
			runtime.Gosched()
			continue
		}
		h := a.nodes[head].hash
		a.mu.Unlock()
		// Take ownership outside alloc.mu (lock order: never both).
		sh := c.shard(h)
		sh.mu.Lock()
		e, owned := sh.ix.steal(h, head)
		sh.mu.Unlock()
		if owned {
			c.steals.Add(1)
			c.release(e)
			continue
		}
		// The head changed hands between the peek and the check: its
		// owner (an overwrite, a Delete, another stealer, or a Set between
		// linking its cell and publishing the entry) is a few instructions
		// from moving it.
		c.stealYields.Add(1)
		runtime.Gosched()
	}
}

// reserveCell takes a cell of class cls for a SET that will run later,
// or reports that there is none to be had without stealing. It never
// takes a class's cells while nothing of the class is published: what a
// reservation holds is out of every stealer's reach for as long as the
// connection takes to get to that SET, so a class must keep something
// to steal.
func (c *Cache) reserveCell(cls int) (slot, bool) {
	a := &c.alloc
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.head[cls] == 0 {
		return slot{}, false
	}
	return c.takeCell(cls)
}

// freeCell puts a held cell back on its free list.
func (c *Cache) freeCell(cls int, s slot) {
	a := &c.alloc
	a.mu.Lock()
	a.free[cls] = append(a.free[cls], s)
	a.mu.Unlock()
}

// takeCell pops a free cell of class cls, carving a fresh heap page
// when the free list is empty. Caller holds alloc.mu.
func (c *Cache) takeCell(cls int) (slot, bool) {
	a := &c.alloc
	if n := len(a.free[cls]); n > 0 {
		s := a.free[cls][n-1]
		a.free[cls] = a.free[cls][:n-1]
		return s, true
	}
	if a.nextPage == a.pages {
		return slot{}, false
	}
	// One cell at 0 and the rest down from the top: ⌊pageBytes/size⌋
	// cells, none crossing the page, whether or not size divides it.
	pg := a.nextPage
	a.nextPage++
	size := classSizes[cls]
	for off := pageBytes - size; off >= size; off -= size {
		a.free[cls] = append(a.free[cls], slot{pg: pg, off: uint16(off)})
	}
	return slot{pg: pg}, true
}

// linkNode appends a node for the key that hashes to h to the tail of
// the class's FIFO. Caller holds alloc.mu.
func (c *Cache) linkNode(cls int, h uint64) uint32 {
	a := &c.alloc
	n := a.freeNode
	if n != 0 {
		a.freeNode = a.nodes[n].next
	} else {
		a.nodes = append(a.nodes, fifoNode{})
		n = uint32(len(a.nodes) - 1)
	}
	a.nodes[n] = fifoNode{hash: h, prev: a.tail[cls]}
	if a.tail[cls] != 0 {
		a.nodes[a.tail[cls]].next = n
	} else {
		a.head[cls] = n
	}
	a.tail[cls] = n
	return n
}

// release gives back the cell and FIFO node of an entry the caller
// owns: one it removed from or replaced in the index.
func (c *Cache) release(e entry) {
	a := &c.alloc
	a.mu.Lock()
	nd := a.nodes[e.node]
	if nd.prev != 0 {
		a.nodes[nd.prev].next = nd.next
	} else {
		a.head[e.cls] = nd.next
	}
	if nd.next != 0 {
		a.nodes[nd.next].prev = nd.prev
	} else {
		a.tail[e.cls] = nd.prev
	}
	a.nodes[e.node] = fifoNode{next: a.freeNode}
	a.freeNode = e.node
	a.free[e.cls] = append(a.free[e.cls], slot{pg: e.pg, off: e.off})
	a.mu.Unlock()
}

// ErrValueTooLarge rejects values over one page.
var ErrValueTooLarge = errors.New("magecache: value exceeds page size")

// ErrKeyTooLong rejects keys over maxKeyLen bytes, as the protocol does:
// an index record keeps its key's length in one byte.
var ErrKeyTooLong = errors.New("magecache: key longer than 250 bytes")

// Set stores key=val (cache-aside fill or overwrite). An overwrite
// moves the value to a fresh cell and frees the old one.
func (c *Cache) Set(key string, val []byte) error { return c.set([]byte(key), val) }

func (c *Cache) set(key, val []byte) error {
	if len(key) > maxKeyLen {
		return ErrKeyTooLong
	}
	cls, ok := classFor(len(val))
	if !ok {
		return ErrValueTooLarge
	}
	s, err := c.holdCell(cls)
	if err != nil {
		return err
	}
	return c.store(key, cls, s, val)
}

// setReserved is Set into the cell a connection reserved for it.
func (c *Cache) setReserved(r reservation, val []byte) error {
	c.writing[r.cls].Add(1)
	return c.store(r.key, r.cls, r.s, val)
}

// store writes val into the held cell s and publishes it under key, or
// puts the cell back when its page cannot be had. The index copies key.
func (c *Cache) store(key []byte, cls int, s slot, val []byte) error {
	defer c.writing[cls].Add(-1)
	fr, err := c.pager.Pin(uint64(s.pg), true)
	if err != nil {
		c.freeCell(cls, s)
		return err
	}
	copy(fr.Data[s.off:int(s.off)+len(val)], val)
	fr.Unpin()

	h := keyHash(key)
	e := entry{pg: s.pg, off: s.off, ln: uint16(len(val)), cls: uint8(cls)}
	c.alloc.mu.Lock()
	e.node = c.linkNode(cls, h)
	c.alloc.mu.Unlock()
	sh := c.shard(h)
	sh.mu.Lock()
	old, had := sh.ix.put(h, key, e)
	sh.mu.Unlock()
	if had {
		c.release(old)
	}
	c.sets.Add(1)
	return nil
}

// Get returns a copy of key's value.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	return c.AppendGet(nil, []byte(key))
}

// AppendGet appends key's value to dst and returns the extended slice;
// on a miss or an error dst comes back as it was. With room in dst a
// hit allocates nothing.
func (c *Cache) AppendGet(dst, key []byte) ([]byte, bool, error) {
	return c.appendGet(dst, key, appendValue)
}

func appendValue(dst, val []byte) []byte { return append(dst, val...) }

// appendGet is the one GET loop, AppendGet's and the connection's: on a
// hit it returns add(dst, value), which add builds while the value's cell
// cannot change, and so must not block.
//
// Under the shard mu it looks the key up and pins the entry's page if it
// is resident (PinResident never waits), copies and unlocks: a resident
// GET is one lookup and one hold of the shard mu. A cell is reused only
// after its entry has left the index under that mu, so no writer can be
// inside the cell while it is copied. A page that is not resident is
// pinned with no lock held, since the pin may fault, and the loop goes
// round again: the pin it holds keeps the page resident, so the next pass
// copies unless the entry moved meanwhile, and then it follows the entry
// to its new cell. Lock order: shard mu → the pager's; no pin is waited
// for under a shard mu.
func (c *Cache) appendGet(dst, key []byte, add func(dst, val []byte) []byte) ([]byte, bool, error) {
	c.gets.Add(1)
	h := keyHash(key)
	sh := c.shard(h)
	var held upager.Frame // pinned with no lock held; Data is nil while none is
	var heldPg uint32
	for {
		sh.mu.Lock()
		e, ok := sh.ix.get(h, key)
		if !ok {
			sh.mu.Unlock()
			break
		}
		fr, pinned := held, held.Data != nil && e.pg == heldPg
		if !pinned {
			fr, pinned = c.pager.PinResident(uint64(e.pg))
		}
		if pinned {
			dst = add(dst, fr.Data[e.off:uint32(e.off)+uint32(e.ln)])
			sh.mu.Unlock()
			fr.Unpin()
			if held.Data != nil && e.pg != heldPg {
				held.Unpin()
			}
			return dst, true, nil
		}
		sh.mu.Unlock()
		if held.Data != nil {
			held.Unpin()
		}
		var err error
		if held, err = c.pager.Pin(uint64(e.pg), false); err != nil {
			return dst, false, err
		}
		heldPg = e.pg
	}
	if held.Data != nil {
		held.Unpin()
	}
	c.misses.Add(1)
	return dst, false, nil
}

// reservation is a cell a connection holds for a SET it has parsed and
// not yet executed, and the key the cell will be published under, in the
// connection's scratch until the index copies it.
type reservation struct {
	key []byte
	s   slot
	cls int
}

// pageOf resolves key to the heap page its value lives on, for the
// connection loop's look-ahead.
func (c *Cache) pageOf(key []byte) (uint64, bool) {
	h := keyHash(key)
	sh := c.shard(h)
	sh.mu.Lock()
	e, ok := sh.ix.get(h, key)
	sh.mu.Unlock()
	return uint64(e.pg), ok
}

// Delete removes key, freeing its cell.
func (c *Cache) Delete(key string) bool { return c.delete([]byte(key)) }

func (c *Cache) delete(key []byte) bool {
	h := keyHash(key)
	sh := c.shard(h)
	sh.mu.Lock()
	e, ok := sh.ix.remove(h, key)
	sh.mu.Unlock()
	if ok {
		c.release(e)
	}
	return ok
}

// CacheStats is a snapshot of cache-level counters (pager counters live
// in Pager().Stats()).
type CacheStats struct {
	Gets, Misses, Sets, Steals uint64
	// StealYields counts the times a stealer found the cell it was after
	// changing hands and gave way.
	StealYields uint64
	// IndexBytes is the heap the key index holds: every shard's table and
	// arena, and the steal FIFOs' nodes.
	IndexBytes uint64
	// HeapPages is the pages of the value heap carved into cells, and
	// ValueBytes the bytes of the live values in them: their ratio to
	// HeapPages × pageBytes is how densely the slab classes pack.
	HeapPages, ValueBytes uint64
}

// density is the live value bytes per byte of the carved heap.
func (s CacheStats) density() float64 {
	if s.HeapPages == 0 {
		return 0
	}
	return float64(s.ValueBytes) / float64(s.HeapPages*pageBytes)
}

// Stats snapshots the counters. It takes every index lock, to size the
// index and sum its values.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Gets:        c.gets.Load(),
		Misses:      c.misses.Load(),
		Sets:        c.sets.Load(),
		Steals:      c.steals.Load(),
		StealYields: c.stealYields.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.IndexBytes += uint64(sh.ix.bytes())
		s.ValueBytes += sh.ix.valueBytes()
		sh.mu.Unlock()
	}
	c.alloc.mu.Lock()
	s.IndexBytes += uint64(cap(c.alloc.nodes)) * uint64(unsafe.Sizeof(fifoNode{}))
	s.HeapPages = uint64(c.alloc.nextPage)
	c.alloc.mu.Unlock()
	return s
}
