package abalg

import (
	"errors"
	"fmt"
	"math"
)

// Quiescent inspection: these walkers traverse the tree without
// synchronization and are meant for tests, validation and
// post-benchmark accounting, when no operation is running.

// root returns the tree's root, the entry's only child.
func root[N comparable, S Store[N]](s S) N { return s.Child(s.Entry(), 0) }

// Scan calls fn for every key-value pair, in ascending key order.
func Scan[N comparable, S Store[N]](s S, fn func(k, v uint64)) {
	var buf []KV
	var walk func(n N)
	walk = func(n N) {
		if s.Kind(n) == Leaf {
			buf = GatherLeaf(s, n, buf[:0])
			SortKVs(buf)
			for _, it := range buf {
				fn(it.K, it.V)
			}
			return
		}
		for i := 0; i < s.NChildren(n); i++ {
			walk(s.Child(n, i))
		}
	}
	walk(root(s))
}

// Height returns the number of levels below the entry node. An empty
// tree (a single leaf root) has height 1.
func Height[N comparable, S Store[N]](s S) int {
	h := 1
	for n := root(s); s.Kind(n) != Leaf; n = s.Child(n, 0) {
		h++
	}
	return h
}

// Shape counts a tree's reachable nodes and keys.
type Shape struct {
	Keys     int
	Leaves   int
	Internal int
	Tagged   int
	Height   int
	// Records counts leaves holding a published elimination record.
	Records     int
	AvgLeafFill float64 // mean keys per leaf / b
}

// ShapeOf walks the tree and returns its Shape.
func ShapeOf[N comparable, S Store[N]](s S) Shape {
	sh := Shape{Height: Height(s)}
	var walk func(n N)
	walk = func(n N) {
		switch s.Kind(n) {
		case Leaf:
			sh.Leaves++
			sh.Keys += s.Size(n)
			if s.HasRecord(n) {
				sh.Records++
			}
			return
		case Tagged:
			sh.Tagged++
		default:
			sh.Internal++
		}
		for i := 0; i < s.NChildren(n); i++ {
			walk(s.Child(n, i))
		}
	}
	walk(root(s))
	if sh.Leaves > 0 {
		_, b := s.Degree()
		sh.AvgLeafFill = float64(sh.Keys) / float64(sh.Leaves*b)
	}
	return sh
}

// Validate checks the structural invariants of the (a,b)-tree (paper
// Theorem 3.5; Theorem 5.4 for the durable trees) and returns the first
// violation found:
//
//  1. reachable nodes form a search tree with correctly partitioned key
//     ranges, and each node's searchKey lies in its own key range, so a
//     search for it reaches the node (the leftmost path's range starts
//     at key 1, the smallest key; its search keys may also be 0);
//  2. no reachable node is marked, no node is tagged (tags are transient
//     and must be gone at quiescence);
//  3. every leaf's size matches its non-empty key count, keys are unique
//     within a leaf and within the tree;
//  4. non-root nodes have between a and b entries;
//  5. all leaves are at the same depth.
func Validate[N comparable, S Store[N]](s S) error {
	var none N
	a, b := s.Degree()
	leafDepth := -1
	seen := make(map[uint64]bool)
	var walk func(n N, lo, hi uint64, depth int, isRoot bool) error
	walk = func(n N, lo, hi uint64, depth int, isRoot bool) error {
		if n == none {
			return errors.New("nil child pointer")
		}
		if s.Marked(n) {
			return fmt.Errorf("reachable node at depth %d is marked", depth)
		}
		kind := s.Kind(n)
		if kind == Tagged {
			return fmt.Errorf("tagged node present at quiescence (depth %d)", depth)
		}
		if sk := s.SearchKey(n); (sk < lo && !(sk == 0 && lo == 1)) || sk >= hi {
			return fmt.Errorf("node at depth %d has search key %d outside its key range [%d, %d)", depth, sk, lo, hi)
		}
		if kind == Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			count := 0
			for i := 0; i < b; i++ {
				k := s.Key(n, i)
				if k == 0 {
					continue
				}
				count++
				if k < lo || k >= hi {
					return fmt.Errorf("leaf key %d outside key range [%d, %d)", k, lo, hi)
				}
				if seen[k] {
					return fmt.Errorf("duplicate key %d", k)
				}
				seen[k] = true
			}
			if sz := s.Size(n); count != sz {
				return fmt.Errorf("leaf size %d but %d non-empty keys", sz, count)
			}
			if !isRoot && (count < a || count > b) {
				return fmt.Errorf("leaf size %d outside [%d, %d]", count, a, b)
			}
			return nil
		}
		nc := s.NChildren(n)
		if !isRoot && nc < a {
			return fmt.Errorf("internal node with %d children (< a=%d)", nc, a)
		}
		if nc < 2 || nc > b {
			return fmt.Errorf("internal node with %d children outside [2, %d]", nc, b)
		}
		prev := lo
		for i := 0; i < nc-1; i++ {
			k := s.Key(n, i)
			if k < prev || k >= hi {
				return fmt.Errorf("routing key %d not in [%d, %d)", k, prev, hi)
			}
			if i > 0 && k <= s.Key(n, i-1) {
				return fmt.Errorf("routing keys not strictly increasing at index %d", i)
			}
			prev = k
		}
		childLo := lo
		for i := 0; i < nc; i++ {
			childHi := hi
			if i < nc-1 {
				childHi = s.Key(n, i)
			}
			if err := walk(s.Child(n, i), childLo, childHi, depth+1, false); err != nil {
				return err
			}
			childLo = childHi
		}
		return nil
	}
	return walk(root(s), 1, math.MaxUint64, 0, true)
}
