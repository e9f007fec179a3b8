package cache

import "dbisim/internal/addr"

// Touch promotes a resident block without a counted lookup.
func (c *Cache) Touch(b addr.BlockAddr) {
	if way, ok := c.find(b); ok {
		c.policy.Touch(c.SetOf(b), way)
	}
}

// Invalidate removes a block if present and returns its prior state.
// Only tests empty a slot: the simulator's caches lose blocks by
// eviction alone.
func (c *Cache) Invalidate(b addr.BlockAddr) (old Block, ok bool) {
	way, ok := c.find(b)
	if !ok {
		return Block{}, false
	}
	set := c.SetOf(b)
	old = c.BlockAt(set, way)
	c.addrs[c.slot(set, way)] = empty
	return old, true
}

// DirtyBlocks returns the addresses of all dirty blocks, the tests'
// oracle for the tag store's dirty state.
func (c *Cache) DirtyBlocks() []addr.BlockAddr {
	var dst []addr.BlockAddr
	for i := range c.addrs {
		if c.validAt(i) && c.dirty[i] != 0 {
			dst = append(dst, addr.BlockAddr(c.addrs[i]))
		}
	}
	return dst
}

// CountValid returns the number of valid blocks.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.addrs {
		if c.validAt(i) {
			n++
		}
	}
	return n
}
