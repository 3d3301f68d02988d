// Package scenario is a minimal fake of sgxp2p/internal/scenario for the
// sealflow golden test: Control.Finish writes a node's result line to its
// runner, the one public output.
package scenario

import "net"

// Control is a node's connection to its runner.
type Control struct {
	conn net.Conn
}

// Finish writes the node's result.
func (c *Control) Finish(result []byte) {
	_, _ = c.conn.Write(result)
}
