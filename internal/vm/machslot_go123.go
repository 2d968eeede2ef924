//go:build !go1.24

package vm

// machSlot is empty before go1.24, which has no weak pointers: a slot
// holding its machine strongly would keep the last machine's slabs
// alive for as long as the process runs. Every released machine goes
// to the pool, so a single caller's steady state depends on the pool
// keeping it, which the race detector does only at random.
type machSlot struct{}

func (*machSlot) take() *mach      { return nil }
func (*machSlot) offer(*mach) bool { return false }
