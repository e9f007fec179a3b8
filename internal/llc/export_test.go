package llc

import (
	"dbisim/internal/addr"
	"dbisim/internal/cache"
	"dbisim/internal/config"
)

// dbiWays is the DBI associativity of build's machines.
var dbiWays = config.Paper(1, config.DBI).DBI.Associativity

// dirtyBlocks lists the blocks whose tag entry is dirty, the tests'
// oracle for a conventional LLC's dirty state.
func dirtyBlocks(c *cache.Cache) []addr.BlockAddr {
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

// countValid returns the number of resident blocks.
func countValid(c *cache.Cache) int {
	n := 0
	for set := 0; set < c.Sets(); set++ {
		for way := 0; way < c.Ways(); way++ {
			if c.BlockAt(set, way).Valid {
				n++
			}
		}
	}
	return n
}
