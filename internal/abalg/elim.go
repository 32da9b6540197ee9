package abalg

// Publishing elimination with the paper's §7 ("Future work") extension:
// an insert with replace semantics that returns no value — "publishing
// elimination does not require any modifications: the thread that
// successfully modifies the data structure is linearized last".
//
// Supporting Upsert alongside the original insert/delete requires the
// elimination record to say *what kind* of operation published it,
// because the legal linearization orders differ:
//
//	record kind →     insert           delete           replace
//	eliminated op ↓
//	Insert            after, rec.Val   before, rec.Val  after, rec.Val
//	Delete            before, ⊥        after, ⊥         —
//	Upsert            —                before, void     before, void
//
// An eliminated Insert can always linearize adjacent to the publisher:
// after an insert or replace (key present with rec.Val), or just before
// a delete (returning the value the delete removed — the paper's §4
// rule). An eliminated Delete linearizes just before an insert or just
// after a delete (key absent either way, return ⊥); it cannot eliminate
// against a replace record, whose before/after states both have the key
// present. An eliminated Upsert linearizes just before a delete or
// replace publisher (its value is immediately overwritten and never
// observed); it cannot eliminate against an insert record, because the
// key must be absent immediately before a successful insert.

// RecKind identifies the operation that published an elimination
// record.
type RecKind uint8

const (
	// RecInsert: a simple insert added the key.
	RecInsert RecKind = iota
	// RecDelete: a successful delete removed the key.
	RecDelete
	// RecReplace: an upsert overwrote the value of a present key.
	RecReplace
)

// ElimOp identifies the operation attempting elimination.
type ElimOp uint8

const (
	ElimInsert ElimOp = iota
	ElimDelete
	ElimUpsert
)

// CanEliminate applies the compatibility matrix above: whether an op
// may linearize against a record of kind rec instead of modifying the
// tree.
func CanEliminate(op ElimOp, rec RecKind) bool {
	switch op {
	case ElimInsert:
		return true
	case ElimDelete:
		return rec == RecInsert || rec == RecDelete
	default: // ElimUpsert
		return rec == RecDelete || rec == RecReplace
	}
}
