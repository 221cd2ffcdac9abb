package protocol

// flatmap is a minimal open-addressing hash table from node IDs to the
// smallest hop counter heard for them — the dedup table each flooding
// program keeps. The Go built-in map dominated the phases' allocation
// profile — one map header plus buckets per node per phase, rehashed as
// floods grow the tables — while this layout is one flat slot array per
// node. Key and value share an 8-byte slot, so a lookup touches one cache
// line, and the slots contain no pointers for the GC to scan.
//
// Both flooding phases use the same table, so a node's emptied K-hop table
// carries over to its centrality program (see runCentrality).
//
// Keys must be non-negative (node IDs); a slot stores key+1, so a zeroed
// slot array is an empty table and needs no fill. Linear probing over a
// power-of-two table, grown past 3/4 load; the zero flatmap is ready to
// use.
type flatmap struct {
	slots []fslot
	used  int
}

// fslot is one table slot; key 0 marks it empty.
type fslot struct {
	key  int32 // node ID + 1
	hops int32 // smallest hop counter heard
}

// reachFactor scales the geometric disk estimate degree * radius^2 down to
// the measured flood reach: on the paper's networks |N_k| is 0.53-0.66 of
// the estimate in the median node and 0.7-0.8 at the 90th percentile.
// Reserving for the median and rounding up to a power of two at 3/4 load
// fits all but ~6% of the K-hop tables without a regrow, at about half
// the memory of reserving for the full disk.
const reachFactor = 0.6

// hash32 is Fibonacci hashing with an avalanche tail — dense sequential
// node IDs spread uniformly over the table.
func hash32(k int32) uint32 {
	x := uint32(k) * 2654435761
	x ^= x >> 16
	return x
}

// upsert returns the slot holding node id, inserting it when it is absent;
// fresh reports the insertion, and a fresh slot's hops is for the caller to
// set. A hit costs one probe sequence, and so does an insert — the lookup
// and the insert share it. The pointer is valid until the next upsert.
func (m *flatmap) upsert(id int32) (s *fslot, fresh bool) {
	if len(m.slots) == 0 {
		m.rehash(16)
	}
	k := id + 1
	mask := uint32(len(m.slots) - 1)
	for i := hash32(k) & mask; ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case k:
			return &m.slots[i], false
		case 0:
			if (m.used+1)*4 > len(m.slots)*3 {
				m.rehash(len(m.slots) * 2)
				return m.upsert(id)
			}
			m.slots[i].key = k
			m.used++
			return &m.slots[i], true
		}
	}
}

// len returns the number of stored keys.
func (m *flatmap) len() int { return m.used }

// reserve sizes the table so n entries fit under the 3/4 load limit
// without rehashing. The flooding programs call it once with their reach
// estimate (reachSize), replacing the 16 -> 32 -> ... grow chain with a
// single allocation.
func (m *flatmap) reserve(n int) {
	need := n*4/3 + 1
	size := 16
	for size < need {
		size *= 2
	}
	if size <= len(m.slots) {
		return
	}
	m.rehash(size)
}

// reachSize is the expected flood reach of a node of the given degree at
// the given hop radius (see reachFactor).
func reachSize(degree, radius int) int {
	return int(reachFactor * float64(degree*radius*radius))
}

// reset empties the table and keeps its slots.
func (m *flatmap) reset() {
	clear(m.slots)
	m.used = 0
}

// rehash moves the table to a fresh power-of-two size.
func (m *flatmap) rehash(size int) {
	old := m.slots
	m.slots = make([]fslot, size)
	mask := uint32(size - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		for j := hash32(s.key) & mask; ; j = (j + 1) & mask {
			if m.slots[j].key == 0 {
				m.slots[j] = s
				break
			}
		}
	}
}
