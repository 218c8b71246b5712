package sim

// The internal tests' fixture protocols, for the external sim_test package.
var (
	WriteReadProto Protocol = writeReadProto{}
	FlipProto      Protocol = flipProto{}
)

// RetryProto is newRetryProto for the external sim_test package.
func RetryProto(halt bool) Protocol { return newRetryProto(halt) }
