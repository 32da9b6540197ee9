package abalg

// FixTagged removes the tagged node n from the tree (paper Figure 7) by
// merging it into its parent — or, if the merged node would exceed b
// children, by splitting the merged contents under a fresh tagged node
// and continuing one level up. Callers hold no locks.
func FixTagged[N comparable, S Store[N]](s S, n N) {
	var none N
	_, b := s.Degree()
	entry := s.Entry()
	for {
		if s.Marked(n) {
			return
		}
		path := s.Search(s.SearchKey(n), n)
		if path.Node != n {
			// Another thread already removed the tagged node.
			return
		}
		p, gp := path.Parent, path.Grand
		if p == none || p == entry || gp == none {
			// A tagged node is never the entry's child (splitting inserts
			// create an untagged root instead); if we observe this state
			// the node was concurrently replaced.
			return
		}

		s.Lock(n)
		s.Lock(p)
		s.Lock(gp)
		if s.Marked(n) || s.Marked(p) || s.Marked(gp) || s.Kind(p) == Tagged {
			s.UnlockAll()
			continue
		}

		// Merge n's single routing key and two children into p's arrays,
		// replacing p's pointer to n.
		nIdx, pIdx := path.NodeIdx, path.ParentIdx
		pc := s.NChildren(p)
		children := make([]N, 0, pc+1)
		keys := make([]uint64, 0, pc)
		for i := 0; i < pc; i++ {
			if i == nIdx {
				children = append(children, s.Child(n, 0), s.Child(n, 1))
			} else {
				children = append(children, s.Child(p, i))
			}
		}
		for i := 0; i < nIdx; i++ {
			keys = append(keys, s.Key(p, i))
		}
		keys = append(keys, s.Key(n, 0))
		for i := nIdx; i < pc-1; i++ {
			keys = append(keys, s.Key(p, i))
		}

		if len(children) <= b {
			// Merge case (Figure 3(5)): one new internal replaces p.
			s.Publish(gp, pIdx, s.NewInternal(Internal, keys, children, s.SearchKey(p)))
			s.Mark(n)
			s.Mark(p)
			s.Retire(n)
			s.Retire(p)
			s.UnlockAll()
			return
		}

		// Split case (Figure 6): the merged contents don't fit, so build
		// a two-level subtree: a new parent over two internals that
		// evenly share the merged keys and children. The new parent is
		// itself tagged (to be merged further up) unless it becomes the
		// root.
		lc := (len(children) + 1) / 2
		promoted := keys[lc-1]
		left := s.NewInternal(Internal, keys[:lc-1], children[:lc], s.SearchKey(p))
		right := s.NewInternal(Internal, keys[lc:], children[lc:], promoted)
		topKind := Tagged
		if gp == entry {
			topKind = Internal
		}
		top := s.NewInternal(topKind, []uint64{promoted}, []N{left, right}, s.SearchKey(p))
		s.Publish(gp, pIdx, top)
		s.Mark(n)
		s.Mark(p)
		s.Retire(n)
		s.Retire(p)
		s.UnlockAll()
		if topKind != Tagged {
			return
		}
		n = top
	}
}

// FixUnderfull restores the minimum-size invariant for n (paper Figure
// 9): it either redistributes entries between n and a sibling, or
// merges them (possibly cascading up). The root may stay underfull.
// Callers hold no locks.
//
// Note on the merge/distribute condition: the paper's pseudocode (line
// 166) reads "if node.size + sibling.size <= 2*MIN then distribute", but
// its own Figure 3(2) merges nodes of sizes 1 and 2 (total 3 <= 4 =
// 2*MIN), and an even split of fewer than 2*MIN entries necessarily
// leaves one node underfull. We therefore use the condition consistent
// with the figure and with Larsen & Fagerberg's relaxed (a,b)-tree:
// distribute when total >= 2*MIN (both halves end up >= MIN), merge
// otherwise (the merged node has < 2*MIN <= b entries, so it fits).
func FixUnderfull[N comparable, S Store[N]](s S, n N) {
	var none N
	a, _ := s.Degree()
	entry := s.Entry()
	for {
		if n == entry || n == s.Child(entry, 0) {
			return // The root may be underfull.
		}
		path := s.Search(s.SearchKey(n), n)
		if path.Node != n {
			return // n is no longer in the tree.
		}
		p, gp, nIdx, pIdx := path.Parent, path.Grand, path.NodeIdx, path.ParentIdx
		if p == none || p == entry || gp == none {
			// n became the root between the check above and the search.
			continue
		}
		if s.NChildren(p) < 2 {
			// Parent itself is underfull (a cascading merge left it with
			// one child); its own FixUnderfull must run first. Retry.
			s.Backoff()
			continue
		}

		sIdx := nIdx - 1
		if nIdx == 0 {
			sIdx = 1
		}
		sibling := s.Child(p, sIdx)

		// Lock order: bottom-to-top, left-to-right (deadlock freedom,
		// paper §3.3.5).
		if sIdx < nIdx {
			s.Lock(sibling)
			s.Lock(n)
		} else {
			s.Lock(n)
			s.Lock(sibling)
		}
		s.Lock(p)
		s.Lock(gp)

		if sizeOf(s, n) >= a {
			// Another thread fixed it (e.g. an insert refilled the leaf).
			s.UnlockAll()
			return
		}
		if s.NChildren(p) < a ||
			s.Marked(n) || s.Marked(sibling) || s.Marked(p) || s.Marked(gp) ||
			s.Kind(n) == Tagged || s.Kind(sibling) == Tagged || s.Kind(p) == Tagged {
			s.UnlockAll()
			s.Backoff()
			continue
		}

		left, right := n, sibling
		lIdx := nIdx
		if sIdx < nIdx {
			left, right, lIdx = sibling, n, sIdx
		}
		// p's routing key lIdx separates left from right.
		if sizeOf(s, n)+sizeOf(s, sibling) >= 2*a {
			distribute(s, left, right, p, gp, lIdx, pIdx)
		} else {
			merge(s, left, right, p, gp, lIdx, pIdx)
		}
		return
	}
}

// distribute evenly reshares the contents of left and right between two
// new nodes, replacing the parent to update the separator key (Figure
// 8). All four nodes are locked; distribute publishes, unlinks and
// unlocks.
func distribute[N comparable, S Store[N]](s S, left, right, p, gp N, lIdx, pIdx int) {
	var newLeft, newRight N
	var newSep uint64
	leaves := s.Kind(left) == Leaf
	if leaves {
		_, b := s.Degree()
		items := GatherLeaf(s, right, GatherLeaf(s, left, make([]KV, 0, 2*b)))
		SortKVs(items)
		lc := (len(items) + 1) / 2
		newSep = items[lc].K
		// Version windows around the replacement, closed by unlink.
		s.BumpVersion(left)
		s.BumpVersion(right)
		newLeft = s.NewLeaf(items[:lc], s.SearchKey(left))
		newRight = s.NewLeaf(items[lc:], newSep)
		s.InheritDistribute(left, right, newLeft, newRight, newSep)
	} else {
		children, keys := gatherInternal(s, left, right, s.Key(p, lIdx))
		lc := (len(children) + 1) / 2
		newSep = keys[lc-1]
		newLeft = s.NewInternal(Internal, keys[:lc-1], children[:lc], s.SearchKey(left))
		newRight = s.NewInternal(Internal, keys[lc:], children[lc:], newSep)
	}

	pc := s.NChildren(p)
	pchildren := make([]N, 0, pc)
	pkeys := make([]uint64, 0, pc-1)
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, newLeft)
		case lIdx + 1:
			pchildren = append(pchildren, newRight)
		default:
			pchildren = append(pchildren, s.Child(p, i))
		}
	}
	for i := 0; i < pc-1; i++ {
		if i == lIdx {
			pkeys = append(pkeys, newSep)
		} else {
			pkeys = append(pkeys, s.Key(p, i))
		}
	}
	s.Publish(gp, pIdx, s.NewInternal(s.Kind(p), pkeys, pchildren, s.SearchKey(p)))
	unlink(s, leaves, left, right, p)
}

// merge combines left and right into one node, shrinking the parent by
// one child (Figure 3(2)); if the parent was the root with exactly two
// children, the merged node becomes the new root (the tree height
// shrinks). All four nodes are locked; merge publishes, unlinks,
// unlocks, and then fixes any underfull node it created.
func merge[N comparable, S Store[N]](s S, left, right, p, gp N, lIdx, pIdx int) {
	a, b := s.Degree()
	var nn N
	leaves := s.Kind(left) == Leaf
	if leaves {
		items := GatherLeaf(s, right, GatherLeaf(s, left, make([]KV, 0, 2*b)))
		// Version windows around the replacement, closed by unlink.
		s.BumpVersion(left)
		s.BumpVersion(right)
		nn = s.NewLeaf(items, s.SearchKey(left))
		s.InheritMerge(left, right, nn)
	} else {
		children, keys := gatherInternal(s, left, right, s.Key(p, lIdx))
		nn = s.NewInternal(Internal, keys, children, s.SearchKey(left))
	}

	pc := s.NChildren(p)
	if gp == s.Entry() && pc == 2 {
		// p was the root and is now down to one child: collapse a level.
		s.Publish(gp, pIdx, nn)
		unlink(s, leaves, left, right, p)
		return
	}

	pchildren := make([]N, 0, pc-1)
	pkeys := make([]uint64, 0, pc-2)
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, nn)
		case lIdx + 1:
			// right's slot: dropped.
		default:
			pchildren = append(pchildren, s.Child(p, i))
		}
	}
	for i := 0; i < pc-1; i++ {
		if i != lIdx {
			pkeys = append(pkeys, s.Key(p, i))
		}
	}
	newParent := s.NewInternal(s.Kind(p), pkeys, pchildren, s.SearchKey(p))
	s.Publish(gp, pIdx, newParent)
	unlink(s, leaves, left, right, p)

	// The merged node may still be underfull (total < 2a can be < a),
	// and the shrunken parent may have dropped below a children. The
	// parent MUST be repaired first: when it was left with a single
	// child (pc was 2), FixUnderfull(nn) would find its parent with < 2
	// children and spin waiting for "its own FixUnderfull" — which would
	// be this very thread, queued behind the spin. Per-key deletes
	// rarely merge a pair whose total is below a, but batched deletes
	// empty whole leaves in one lock hold and hit this self-wait
	// readily.
	if pc-1 < a {
		FixUnderfull(s, newParent)
	}
	if sizeOf(s, nn) < a {
		FixUnderfull(s, nn)
	}
}

// unlink finishes a distribute or merge whose replacement is
// published: it marks the three replaced nodes, closes the leaves'
// version windows, retires the nodes and releases every lock.
func unlink[N comparable, S Store[N]](s S, leaves bool, left, right, p N) {
	s.Mark(left)
	s.Mark(right)
	s.Mark(p)
	if leaves {
		s.BumpVersion(left)
		s.BumpVersion(right)
	}
	s.Retire(left)
	s.Retire(right)
	s.Retire(p)
	s.UnlockAll()
}

// gatherInternal concatenates two locked internal siblings' children and
// routing keys, with the parent separator sep between them.
func gatherInternal[N comparable, S Store[N]](s S, left, right N, sep uint64) ([]N, []uint64) {
	lc, rc := s.NChildren(left), s.NChildren(right)
	children := make([]N, 0, lc+rc)
	keys := make([]uint64, 0, lc+rc-1)
	for i := 0; i < lc; i++ {
		children = append(children, s.Child(left, i))
	}
	for i := 0; i < lc-1; i++ {
		keys = append(keys, s.Key(left, i))
	}
	keys = append(keys, sep)
	for i := 0; i < rc; i++ {
		children = append(children, s.Child(right, i))
	}
	for i := 0; i < rc-1; i++ {
		keys = append(keys, s.Key(right, i))
	}
	return children, keys
}
