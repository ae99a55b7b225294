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

	"mage/internal/upager"
)

const pageBytes = 4096

// classSizes are the slab size classes. Every class divides the page
// size, so a slot never crosses a page boundary and a GET pins exactly
// one page.
var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096}

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

// fifoNode is one link of a class's steal FIFO: the key that owns a
// published cell, in publication order (the key's index entry names the
// cell). Node 0 is the list's nil.
type fifoNode struct {
	key        string
	prev, next uint32
}

const indexShards = 64

type idxShard struct {
	mu sync.Mutex
	m  map[string]entry
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
	// that entry's key, into its class's steal FIFO.
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
	// becomes the owner by deleting the head's entry.
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
	for i := range c.shards {
		c.shards[i].m = make(map[string]entry)
	}
	return c, nil
}

// Close flushes the paged heap. The backing store stays open.
func (c *Cache) Close() error { return c.pager.Close() }

// Pager exposes the underlying pager (for stats reporting).
func (c *Cache) Pager() *upager.Pager { return c.pager }

// shard picks key's index shard (FNV-1a). Generic so that neither a
// string key nor a byte-slice key pays a conversion.
func shard[K string | []byte](c *Cache, key K) *idxShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%indexShards]
}

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
		victim := a.nodes[head].key
		a.mu.Unlock()
		// Take ownership outside alloc.mu (lock order: never both).
		sh := shard(c, victim)
		sh.mu.Lock()
		e, ok := sh.m[victim]
		owned := ok && e.node == head
		if owned {
			delete(sh.m, victim)
		}
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
	pg := a.nextPage
	a.nextPage++
	size := classSizes[cls]
	for off := pageBytes - size; off >= size; off -= size {
		a.free[cls] = append(a.free[cls], slot{pg: pg, off: uint16(off)})
	}
	return slot{pg: pg}, true
}

// linkNode appends a node for key to the tail of the class's FIFO.
// Caller holds alloc.mu.
func (c *Cache) linkNode(cls int, key string) uint32 {
	a := &c.alloc
	n := a.freeNode
	if n != 0 {
		a.freeNode = a.nodes[n].next
	} else {
		a.nodes = append(a.nodes, fifoNode{})
		n = uint32(len(a.nodes) - 1)
	}
	a.nodes[n] = fifoNode{key: key, prev: a.tail[cls]}
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
	a.nodes[e.node] = fifoNode{next: a.freeNode} // drops the key string
	a.freeNode = e.node
	a.free[e.cls] = append(a.free[e.cls], slot{pg: e.pg, off: e.off})
	a.mu.Unlock()
}

// ErrValueTooLarge rejects values over one page.
var ErrValueTooLarge = errors.New("magecache: value exceeds page size")

// Set stores key=val (cache-aside fill or overwrite). An overwrite
// moves the value to a fresh cell and frees the old one.
func (c *Cache) Set(key string, val []byte) error {
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
// puts the cell back when its page cannot be had.
func (c *Cache) store(key string, cls int, s slot, val []byte) error {
	defer c.writing[cls].Add(-1)
	fr, err := c.pager.Pin(uint64(s.pg), true)
	if err != nil {
		c.freeCell(cls, s)
		return err
	}
	copy(fr.Data[s.off:int(s.off)+len(val)], val)
	fr.Unpin()

	e := entry{pg: s.pg, off: s.off, ln: uint16(len(val)), cls: uint8(cls)}
	c.alloc.mu.Lock()
	e.node = c.linkNode(cls, key)
	c.alloc.mu.Unlock()
	sh := shard(c, key)
	sh.mu.Lock()
	old, had := sh.m[key]
	sh.m[key] = e
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
//
// The page is pinned with no lock held (the pin may fault), and the
// bytes are copied under the shard mu once the entry is seen to still
// name the pinned cell. A cell is reused only after its entry has left
// the index under that same mu, so no writer can be inside the cell
// while it is copied, and a value that moved while its old page was
// coming in is simply followed to its new cell.
func (c *Cache) AppendGet(dst, key []byte) ([]byte, bool, error) {
	c.gets.Add(1)
	sh := shard(c, key)
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	sh.mu.Unlock()
	for ok {
		fr, err := c.pager.Pin(uint64(e.pg), false)
		if err != nil {
			return dst, false, err
		}
		sh.mu.Lock()
		cur, still := sh.m[string(key)]
		if still && cur == e {
			dst = append(dst, fr.Data[e.off:uint32(e.off)+uint32(e.ln)]...)
		}
		sh.mu.Unlock()
		fr.Unpin()
		if still && cur == e {
			return dst, true, nil
		}
		e, ok = cur, still
	}
	c.misses.Add(1)
	return dst, false, nil
}

// reservation is a cell a connection holds for a SET it has parsed and
// not yet executed, and the key the cell will be published under: the
// one string made for that SET, which the index and the steal FIFO keep.
type reservation struct {
	key string
	s   slot
	cls int
}

// pageOf resolves key to the heap page its value lives on, for the
// connection loop's look-ahead.
func (c *Cache) pageOf(key []byte) (uint64, bool) {
	sh := shard(c, key)
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	sh.mu.Unlock()
	return uint64(e.pg), ok
}

// Delete removes key, freeing its cell.
func (c *Cache) Delete(key string) bool {
	sh := shard(c, key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
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
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Gets:        c.gets.Load(),
		Misses:      c.misses.Load(),
		Sets:        c.sets.Load(),
		Steals:      c.steals.Load(),
		StealYields: c.stealYields.Load(),
	}
}
