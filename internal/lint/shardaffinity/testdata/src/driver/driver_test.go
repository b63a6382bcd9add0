package driver

import (
	"env"
	"id"
	"simnet"
	"transport"
)

// Test files are held to the injection rule on live injectors: shards
// are real goroutines there, so per-file work on shard 0 is a data race.
func testBadLiveInject(n *transport.Node, file id.FileID) {
	n.Inject(func(e env.Env) {
		e.Send(1, write{file: file}) // want `per-file work runs node-global through Node\.Inject; use InjectFile`
	})
}

func testGoodLiveInjectFile(n *transport.Node, file id.FileID) {
	n.InjectFile(file, func(e env.Env) {
		e.Send(1, write{file: file})
	})
}

// The emulator's shards are logical and single-goroutine: tests may keep
// scheduling per-file work through CallAt.
func testSimnetCallAtExempt(c *simnet.Cluster, file id.FileID) {
	c.CallAt(0, 1, func(e env.Env) {
		e.Send(1, write{file: file})
	})
}
