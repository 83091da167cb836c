package ir

import "sync"

// derivedEntry is one memoized analysis result.
type derivedEntry struct {
	once sync.Once
	val  any
}

// Derived returns the result of a static analysis of the program,
// computing it with build on the first request for key and returning that
// same value to every later request — concurrent ones block until the one
// build finishes. Like Interning, it relies on the program being
// immutable once built. key must be comparable; callers use an unexported
// key type of their own so different analyses cannot collide (package
// detect keys the spin instrumentation and the vm decode by spin window).
// Builds of different keys run independently.
func (p *Program) Derived(key any, build func() any) any {
	p.derivedMu.Lock()
	e, ok := p.derived[key]
	if !ok {
		if p.derived == nil {
			p.derived = make(map[any]*derivedEntry)
		}
		e = &derivedEntry{}
		p.derived[key] = e
	}
	p.derivedMu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}
