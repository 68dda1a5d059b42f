package coll

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"knlcap/internal/core"
	"knlcap/internal/knl"
)

// collGolden pins the %#v digest of every collective's Result (the hash
// perfbench's digest takes): all six ops under all three algorithms at 8
// scatter-pinned threads and 24 fill-tiles threads (two per tile, so the
// tuned intra-tile stages run), plus the two payload-carrying ops at a
// 4-line message. Figures 6-8 pin only barrier, broadcast and reduce at
// one line; this golden also pins allreduce, allgather and scan.
var collGolden = []struct {
	op       Op
	alg      Algorithm
	threads  int
	sched    knl.Schedule
	msgLines int
	digest   string
}{
	{Barrier, Tuned, 8, knl.Scatter, 1, "6e3b70fc97f64e83"},
	{Barrier, OMP, 8, knl.Scatter, 1, "73f5501ba93d4762"},
	{Barrier, MPI, 8, knl.Scatter, 1, "f1c7d5b96a64ea2c"},
	{Bcast, Tuned, 8, knl.Scatter, 1, "0d82b3b431955b53"},
	{Bcast, OMP, 8, knl.Scatter, 1, "6ec588a7060a247a"},
	{Bcast, MPI, 8, knl.Scatter, 1, "fbcb4b2810bca466"},
	{Reduce, Tuned, 8, knl.Scatter, 1, "1c210c4fa7a4facf"},
	{Reduce, OMP, 8, knl.Scatter, 1, "3321d51dc5023fa7"},
	{Reduce, MPI, 8, knl.Scatter, 1, "58a4f2b644793e78"},
	{Allreduce, Tuned, 8, knl.Scatter, 1, "da05440d9dcb7aa9"},
	{Allreduce, OMP, 8, knl.Scatter, 1, "17a2652d0811b3d9"},
	{Allreduce, MPI, 8, knl.Scatter, 1, "e4c71bda3faf56fe"},
	{Allgather, Tuned, 8, knl.Scatter, 1, "b6d0e782d0a602d0"},
	{Allgather, OMP, 8, knl.Scatter, 1, "a3724d5a70d4b84c"},
	{Allgather, MPI, 8, knl.Scatter, 1, "12a0893aeb5b972b"},
	{Scan, Tuned, 8, knl.Scatter, 1, "5f0c8cd7b764cc11"},
	{Scan, OMP, 8, knl.Scatter, 1, "a7c00158f01bf23d"},
	{Scan, MPI, 8, knl.Scatter, 1, "35e590e2958cfcd8"},
	{Barrier, Tuned, 24, knl.FillTiles, 1, "9fef3068179a7479"},
	{Barrier, OMP, 24, knl.FillTiles, 1, "0c86d45602be9cc4"},
	{Barrier, MPI, 24, knl.FillTiles, 1, "644f3f8c28563f80"},
	{Bcast, Tuned, 24, knl.FillTiles, 1, "315f9fe33f45bec2"},
	{Bcast, OMP, 24, knl.FillTiles, 1, "caafb254714fdce6"},
	{Bcast, MPI, 24, knl.FillTiles, 1, "42970bdcfd5ffbb8"},
	{Reduce, Tuned, 24, knl.FillTiles, 1, "90c56029119cb877"},
	{Reduce, OMP, 24, knl.FillTiles, 1, "79e1b81e2dde5309"},
	{Reduce, MPI, 24, knl.FillTiles, 1, "bb553d67e9ed3e0b"},
	{Allreduce, Tuned, 24, knl.FillTiles, 1, "55629668266b9eb2"},
	{Allreduce, OMP, 24, knl.FillTiles, 1, "66262024b256a52f"},
	{Allreduce, MPI, 24, knl.FillTiles, 1, "4c9c54ed6c43dce6"},
	{Allgather, Tuned, 24, knl.FillTiles, 1, "234f57d0f6faa740"},
	{Allgather, OMP, 24, knl.FillTiles, 1, "e53d5a2a48f86623"},
	{Allgather, MPI, 24, knl.FillTiles, 1, "527ce72521338214"},
	{Scan, Tuned, 24, knl.FillTiles, 1, "e8805aa9ddb4bd0f"},
	{Scan, OMP, 24, knl.FillTiles, 1, "1456a65dd85f927a"},
	{Scan, MPI, 24, knl.FillTiles, 1, "7e70214469149ba7"},
	{Bcast, Tuned, 8, knl.Scatter, 4, "c8e3a89955c822a6"},
	{Bcast, OMP, 8, knl.Scatter, 4, "3f873fa3ca193bc6"},
	{Bcast, MPI, 8, knl.Scatter, 4, "43ddc50c232af043"},
	{Allreduce, Tuned, 8, knl.Scatter, 4, "680d060a0e939a96"},
	{Allreduce, OMP, 8, knl.Scatter, 4, "e42490050db1473d"},
	{Allreduce, MPI, 8, knl.Scatter, 4, "03aeebe9824572a4"},
	{Bcast, Tuned, 24, knl.FillTiles, 4, "8e5180ec553f95ca"},
	{Bcast, OMP, 24, knl.FillTiles, 4, "7e68efc275342b50"},
	{Bcast, MPI, 24, knl.FillTiles, 4, "a32678df80af21e2"},
	{Allreduce, Tuned, 24, knl.FillTiles, 4, "cf0751551ca7a9fb"},
	{Allreduce, OMP, 24, knl.FillTiles, 4, "038e54cd303ab784"},
	{Allreduce, MPI, 24, knl.FillTiles, 4, "06b9791f3333b82e"},
}

func TestCollectiveGolden(t *testing.T) {
	cfg := knl.DefaultConfig()
	model := core.Default()
	for _, c := range collGolden {
		p := DefaultParams(c.threads, c.sched)
		p.MsgLines = c.msgLines
		res := Measure(cfg, model, quick(), c.op, c.alg, p)
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
		if got := hex.EncodeToString(sum[:8]); got != c.digest {
			t.Errorf("%v/%v threads=%d %v lines=%d: digest %s, want %s",
				c.op, c.alg, c.threads, c.sched, c.msgLines, got, c.digest)
		}
	}
}
