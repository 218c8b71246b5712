package dist

import (
	"randsync/internal/sim"
	"randsync/internal/zoo"
)

// ProtoSpec is a job's protocol coordinate in the internal/zoo registry.
type ProtoSpec = zoo.Spec

// Resolve forwards to zoo.Resolve, which in-tree code calls directly.  It
// stays because the bench/ module calls it and bench/ is kept frozen so
// its measurements compare across commits.
func Resolve(s ProtoSpec) (sim.Protocol, error) { return zoo.Resolve(s) }
