//go:build go1.24

package vm

import (
	"sync"
	"weak"
)

// machSlot is the machine cache's one-slot front. It holds its machine
// through a weak pointer, so the slot never keeps an idle machine's
// register files and slabs alive across a garbage collection.
type machSlot struct {
	mu sync.Mutex
	m  weak.Pointer[mach]
}

// take empties the slot and returns its machine, or nil.
func (s *machSlot) take() *mach {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m.Value()
	s.m = weak.Pointer[mach]{}
	return m
}

// offer puts m in the slot if the slot is empty and reports whether it
// did.
func (s *machSlot) offer(m *mach) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m.Value() != nil {
		return false
	}
	s.m = weak.Make(m)
	return true
}
