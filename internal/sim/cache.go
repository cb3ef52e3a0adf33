// Package sim implements the detailed machine timing simulator used as the
// reproduction's ground truth (see DESIGN.md). The paper validates its
// analytical projections against profiled runs on two physical machines
// (BG/Q and Xeon nodes); this package plays that role: it executes minilang
// programs on a machine model with real set-associative caches, per-class
// instruction costs, division latency, SIMD, and branch-misprediction
// penalties — exactly the machine-dependent effects the analytical model
// abstracts away — and attributes cycles to source blocks, producing the
// measured ("Prof") hot-spot baseline and the issue-rate statistics of the
// paper's Figure 8.
package sim

// cacheLine is one resident line: its tag and an LRU timestamp.
type cacheLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

// Cache is a set-associative LRU cache.
type Cache struct {
	sets    [][]cacheLine
	lineB   uint64
	numSets uint64
	clock   uint64

	// Hits and Misses count probe outcomes.
	Hits, Misses uint64
}

// NewCache builds a cache of the given total size, line size and
// associativity (all in bytes / ways). Geometry must divide evenly; callers
// pass validated hw.Machine parameters.
func NewCache(sizeB, lineB, assoc int) *Cache {
	numSets := sizeB / (lineB * assoc)
	if numSets < 1 {
		numSets = 1
	}
	c := &Cache{
		sets:    make([][]cacheLine, numSets),
		lineB:   uint64(lineB),
		numSets: uint64(numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, assoc)
	}
	return c
}

// Access probes the cache for addr and returns whether it hit. On a miss
// the line is filled, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	lineAddr := addr / c.lineB
	set := c.sets[lineAddr%c.numSets]
	tag := lineAddr / c.numSets
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Fill: evict LRU (or first invalid).
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, lru: c.clock}
	return false
}

// Fill inserts the line containing addr without recording hit/miss
// statistics — the prefetch path (a prefetch is not a demand access).
func (c *Cache) Fill(addr uint64) {
	c.clock++
	lineAddr := addr / c.lineB
	set := c.sets[lineAddr%c.numSets]
	tag := lineAddr / c.numSets
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, lru: c.clock}
}

// Accesses returns the total number of probes.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }

// HitRate returns the hit fraction (0 when unused).
func (c *Cache) HitRate() float64 {
	n := c.Accesses()
	if n == 0 {
		return 0
	}
	return float64(c.Hits) / float64(n)
}
