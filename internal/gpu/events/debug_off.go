//go:build !eventsdebug

package events

// poisonRec is what release writes into a vacated pool slot: the zero
// record. Under the eventsdebug build tag it becomes a poison pattern and
// the check hooks below verify it (see debug_on.go).
var poisonRec = rec{}

func checkAcquire(r *rec)  {}
func checkDispatch(r *rec) {}
