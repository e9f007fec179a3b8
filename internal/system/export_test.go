package system

import (
	"dbisim/internal/addr"
	"dbisim/internal/cache"
)

// tagDirtyBlocks lists the blocks whose tag entry is dirty, the tests'
// oracle for a conventional LLC's dirty state.
func tagDirtyBlocks(c *cache.Cache) []addr.BlockAddr {
	var out []addr.BlockAddr
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Ways(); way++ {
			if b := c.BlockAt(set, way); b.Valid && b.Dirty {
				out = append(out, b.Addr)
			}
		}
	}
	return out
}
