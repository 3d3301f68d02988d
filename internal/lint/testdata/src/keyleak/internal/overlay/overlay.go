// Package overlay is a helper package for the keyleak golden test: a sink
// behind a function declared in another package than its caller.
package overlay

import "fmt"

// Fmt formats v into an error.
func Fmt(v any) error {
	return fmt.Errorf("overlay: %v", v)
}
