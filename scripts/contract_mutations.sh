#!/bin/sh
# Seeded-negative self-test of the contracts the engine's own tests hold
# (DESIGN.md §10): break each contract in a scratch copy of the tree, run
# only the test that owns it — in internal/core, internal/sortalg,
# internal/cgm, internal/pdm, internal/layout, internal/permute,
# internal/balance, or in the root package for the property tests — and
# require that test to fail by name. The
# unmutated copy must pass the same tests first. An anchor line that no
# longer matches is itself a failure, so a refactor that moves the code
# must move its mutation with it. The tree is copied once, at the start,
# and every mutated file is restored from that copy, so a run does not
# depend on edits made to the tree while it runs.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/pristine" "$tmp/work"
cp -R "$root/go.mod" "$root"/*.go "$root/internal" "$tmp/pristine/"
cp -R "$tmp/pristine/." "$tmp/work/"
cd "$tmp/work"

# run_tests PATTERN: the tests of internal/core, internal/sortalg,
# internal/cgm, internal/pdm, internal/layout, internal/permute,
# internal/balance and the root package that PATTERN names.
run_tests() { go test . ./internal/core ./internal/sortalg ./internal/cgm ./internal/pdm ./internal/layout ./internal/permute ./internal/balance -count=1 -timeout 300s -run "^($1)\$" 2>&1; }

# mutate FILE ANCHOR COUNT NTH REPLACEMENT: ANCHOR (a fixed string) must
# be on exactly COUNT lines of FILE; the NTH such line becomes REPLACEMENT
# (awk escapes: \n, \t).
mutate() {
	have=$(grep -cF -- "$2" "$1" || true)
	if [ "$have" != "$3" ]; then
		echo "contract-selftest: anchor '$2' is on $have lines of $1, want $3"
		exit 1
	fi
	awk -v anchor="$2" -v nth="$4" -v repl="$5" \
		'index($0, anchor) && ++seen == nth { print repl; next } { print }' "$1" > "$1.mut"
	mv "$1.mut" "$1"
}

# failure OUT OWNER: the first line of go test's output OUT that reports
# the failure — a panic, or a file_test.go:N: line whose source line is
# not a t.Log/t.Logf call (a test that logs prints those lines too). go
# test prints the file's base name only, and several packages share base
# names, so the line is read from the package of the file declaring OWNER.
failure() {
	pkg=$(dirname "$(grep -rl --include='*_test.go' "^func $2(" . | head -n 1)")
	printf '%s\n' "$1" | while IFS= read -r line; do
		case $line in
		panic:\ *)
			printf '%s\n' "$line"
			break
			;;
		esac
		loc=$(printf '%s\n' "$line" | sed -n 's/^ *\([a-z0-9_]*_test\.go:[0-9]*\): .*/\1/p')
		[ -n "$loc" ] || continue
		if sed -n "${loc##*:}p" "$pkg/${loc%%:*}" 2>/dev/null | grep -qE '\.Logf?\('; then
			continue
		fi
		printf '%s\n' "$line" | sed 's/^ *//'
		break
	done | cut -c1-160
}

# check NAME FILE OWNER: the mutated copy must fail OWNER by name; FILE is
# then restored from the pristine copy.
check() {
	if out=$(run_tests "$3"); then
		echo "contract-selftest: $1 is not caught by $3"
		exit 1
	fi
	if ! printf '%s\n' "$out" | grep -q -- "--- FAIL: $3"; then
		printf '%s\n' "$out" | tail -n 20
		echo "contract-selftest: $1 broke the run, but not as a failure of $3"
		exit 1
	fi
	echo "contract-selftest: $1 -> $3 fails: $(failure "$out" "$3")"
	cp "$tmp/pristine/$2" "$2"
}

owners='TestInitCheckedEquivalence|TestPipelineDepthEquivalence|TestArenaAliasSafety|TestRunFaultDrains|TestWhatIsNotMoved|TestLivePrefixProperties|TestPipelineDepthResolved|TestComputeWorkersInvariant|TestDecodeAllocIndependentOfRounds|TestDeterministicImports|TestSortedCopy|TestOwnersMatchOwner|TestMergeSortSurfacesDiskFaults|TestBatchFailureAttributedPerTransfer|TestLivePrefixesMeet|TestScratchAliasSafety|TestPositioningsPerDisk|TestContextPairsMeet|TestPSRSInMemory|TestDeliveryAllocation|TestSortDeliveryAllocation|TestSortDeliveryCheckedIO|TestCountMatchesOracleEverySeed|FuzzBalancedRouting|TestDiskArrayDiscard'
if ! out=$(run_tests "$owners"); then
	printf '%s\n' "$out" | tail -n 20
	echo "contract-selftest: the unmutated tree fails its own contract tests"
	exit 1
fi
echo "contract-selftest: unmutated copy passes ($owners)"

f=internal/core/engine.go
mutate $f 'if err := layout.BeginWriteStripedScratch(pr.arr, 0, start, s.bufs, &s.lay, &sl.writes); err != nil {' 1 1 \
	'\terr := layout.BeginWriteStripedScratch(pr.arr, 0, start, s.bufs, &s.lay, &sl.writes)\n\ts.ctxImg[0] ^= 1\n\tif err != nil {'
check 'touch a loaned buffer' $f TestInitCheckedEquivalence

f=internal/layout/splitphase.go
mutate $f 'pend.Add(p)' 2 2 '\t\t_ = p'
check 'drop the read hand-off' $f TestPipelineDepthEquivalence

mutate $f 'pend.Add(p)' 2 1 '\t\t_ = p'
check 'drop the write hand-off' $f TestRunFaultDrains

f=internal/core/engine.go
mutate $f 'ss.End()' 1 1 ''
check 'leak the superstep span' $f TestRunFaultDrains

mutate $f 'chans[k] <- batch[T]{srcVP: pr.i*localV + l, final: true}' 1 1 '\t\t\t\t_ = k'
check 'drop the compensating sends' $f TestRunFaultDrains

# The length table says how many items are live, and so how many blocks;
# a reader that transfers fewer must not get away with what the ring slot
# held before. CheckedIO poisons the slot's images ahead of every prefetch,
# so the missing block decodes as items that are garbage, and the output
# is wrong.
mutate $f 'start := e.ctxBufs(pr, s, pos, e.ctxBlocks(pr.ctxLive[l]))' 2 1 \
	'\t\tstart := e.ctxBufs(pr, s, pos, max(e.ctxBlocks(pr.ctxLive[l])-1, 0))'
check 'read one block too few' $f TestPipelineDepthEquivalence

# A ring slot's message slots hold their live prefixes back to back
# (DESIGN.md §18): writer, reader and decoder place slot i after the live
# blocks of the slots before it, all three from the same counts. A decoder
# that takes every slot at a fixed stride, b′, reads every slot but the
# first at the wrong words, or past the image. The arena test catches it
# first: its sequential machine runs at c = 1, so the decode runs on the
# test's own goroutine, where an index past the image fails the test by
# name; the parallel arms of the equivalence tests decode on the run's
# goroutines, where it kills the test binary instead.
mutate $f 'w.mem.decode(e.codec, ctxImg, s.flat, e.cfg.B, s.live, counts)' 1 1 \
	'\tfixed := make([]int, len(s.live))\n\tfor i := range fixed {\n\t\tfixed[i] = e.bpm\n\t}\n\tstate, inbox, recv := w.mem.decode(e.codec, ctxImg, s.flat, e.cfg.B, fixed, counts)'
check 'decode at a fixed stride b′ instead of the packed offsets' $f TestArenaAliasSafety

# A message's live prefix is the blocks its items reach, and the oracle
# derives every seed's count from the sizes alone (costmodel.Predict). An
# engine that moves a quarter block past the last word of each message, as
# it did while that held counts steady across seeds, moves a block more
# for every message whose last block is more than three quarters full,
# and the predictor no longer knows it.
mutate $f 'func (e *engine[T]) msgBlocks(n int) int { return liveBlocks(n, e.codec.Words(), e.cfg.B, e.bpm) }' 1 1 \
	'func (e *engine[T]) msgBlocks(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn min(pdm.BlocksFor(n*e.codec.Words()+e.cfg.B/4, e.cfg.B), e.bpm)\n}'
check 'the engine keeps a B/4 guard the predictor does not' $f TestCountMatchesOracleEverySeed

# What is not moved (DESIGN.md §18): a context is clean only if its
# encoding is, word for word, what the slot read. Neither shortcut may
# pass: a program can change an item in place (same slice, same length),
# and it can hand back different words at the same length.
mutate $f 'w.same = encodeCtx(e.codec, vp.State, s.ctxImg, w.cmp, pr.ctxLive[l], e.ctxBlocks(len(vp.State)), e.cfg.B)' 1 1 \
	'\t\tw.same = round > 0 && within(vp.State, w.mem.state) && len(vp.State) == pr.ctxLive[l]\n\t\tif !w.same {\n\t\t\tw.same = encodeCtx(e.codec, vp.State, s.ctxImg, w.cmp, pr.ctxLive[l], e.ctxBlocks(len(vp.State)), e.cfg.B)\n\t\t}'
check 'same backing array and length => clean' $f TestWhatIsNotMoved

f=internal/core/core.go
mutate $f 'same = slices.Equal(words, img[off*iw:off*iw+len(words)])' 1 1 \
	'\t\t_ = slices.Equal(words, img[off*iw:off*iw+len(words)])'
check 'lengths equal => clean without comparing words' $f TestWhatIsNotMoved

# One packing rule (DESIGN.md §18): a burst costs as many operations as its
# busiest disk has requests, in the engine and in the predictor alike. A
# loop that stops when the first disk runs out of requests leaves the
# longer queues' blocks unwritten, and their readers find them so; a
# predictor still cutting at the first conflict prices bursts the engine
# no longer issues.
f=internal/layout/scratch.go
mutate $f 'longest = max(longest, queue[k])' 1 1 \
	'\t\tif k == 0 || queue[k] < longest {\n\t\t\tlongest = queue[k]\n\t\t}'
check 'stop at the shortest disk queue' $f TestPipelineDepthEquivalence

f=internal/costmodel/costmodel.go
mutate $f 'return slices.Max(p.perDisk)' 1 1 \
	'\tops, i := int64(0), 0\n\tfor ; i < len(reqs); ops++ {\n\t\tclear(p.perDisk)\n\t\tfor i < len(reqs) && p.perDisk[reqs[i].Disk] == 0 {\n\t\t\tp.perDisk[reqs[i].Disk]++\n\t\t\ti++\n\t\t}\n\t}\n\treturn ops + 0*slices.Max(p.perDisk)'
check 'price bursts by greedy FIFO' $f TestLivePrefixProperties

# The schedule is a function of the Config alone (DESIGN.md §17): whoever
# watches a run, its ring depth and begin order are the unwatched run's.
f=internal/core/depth.go
mutate $f 'k = max(min(k, vCap), 1)' 1 1 \
	'\tk = max(min(k, vCap), 1)\n\tif cfg.Recorder != nil {\n\t\tk = vCap\n\t}'
check 'size the ring from an observer' $f TestPipelineDepthResolved

# Concurrent compute moves only when a VP computes, never the begin order
# (DESIGN.md §17): VP l+pf's prefetch is begun by the slide that follows VP
# l−1's commit. Begun when each VP is handed to its worker instead, the
# reads of VPs up to c−1 places ahead overtake writes that the c = 1
# schedule begins first; c = 1 itself does not change.
f=internal/core/engine.go
mutate $f 'if err := e.slide(pr, round, l+K/2); err != nil {' 1 1 \
	'\tif err := error(nil); err != nil {'
mutate $f 'n := *next' 1 1 \
	'\t\tn := *next\n\t\tif err := e.slide(pr, round, n+K/2); err != nil {\n\t\t\treturn err\n\t\t}'
check 'begin the prefetch at dispatch, not after the previous commit' $f TestComputeWorkersInvariant

# The engine allocates per round, never per transfer: a round's hundreds
# of block transfers reuse the processors' scratch. A layout scratch that
# regrows on every burst puts an allocation under every one of them.
f=internal/layout/scratch.go
mutate $f 'if cap(s.reqs) < n {' 1 1 '\tif true {'
check 'allocate per transfer' $f TestDecodeAllocIndependentOfRounds

# The schedule is a function of the program, its input and the Config
# (DESIGN.md §11): nothing the runtime randomises may decide it. Each disk
# serves a burst's requests in burst order; taken from a map's iteration
# instead, the order differs from one run to the next.
mutate $f 'for i := len(reqs) - 1; i >= 0; i-- {' 1 1 \
	'\tburst := make(map[int]bool, len(reqs))\n\tfor i := range reqs {\n\t\tburst[i] = true\n\t}\n\tfor i := range burst {'
check 'serve a burst in map order' $f TestPipelineDepthResolved

# The deterministic packages reach the outside world only through pdm: a
# limit read from the environment is a decision no Config records.
f=internal/sortalg/psrs.go
mutate $f '"cmp"' 1 1 '\t"cmp"\n\t"os"'
mutate $f 'if cfg.MaxMsgItems == 0 {' 1 1 '\tif cfg.MaxMsgItems == 0 && os.Getenv("EMSORT_MSG_ITEMS") == "" {'
check 'read the environment in sortalg' $f TestDeterministicImports

# The ban holds through every module package the deterministic ones
# import, not only their own files: obs, which core and balance import,
# may not reach the network either.
f=internal/obs/obs.go
mutate $f '"sort"' 1 1 '\t"net/http"\n\t"sort"'
mutate $f 'const maxEvents = 1 << 20' 1 1 'const maxEvents = 1 << 20\n\nvar _ = http.MethodGet'
check 'import net/http in obs' $f TestDeterministicImports

# No I/O error is dropped: the round epilogue's wait on the write-behind
# is the only report of a write that failed, since nothing reads the
# block before the next round does. The sweep's one-shot faults fail that
# write alone.
f=internal/core/engine.go
mutate $f 'if err := e.wait(pr, &pr.pend[s].writes); err != nil {' 1 1 \
	'\t\t_ = e.wait(pr, &pr.pend[s].writes)\n\t\tif err := error(nil); err != nil {'
check 'drop a write-behind error' $f TestRunFaultDrains

# A local sort's output is slices.Sort's (DESIGN.md §7): lsdFinish sorts
# two digits per call, and keys that tie on both still need the digits
# below. Without the tie pass, keys that share those sixteen bits stay in
# the order they came in: every top-byte bucket of the midTie pattern,
# and at every size above insertionMax the narrow patterns, whose high
# digits are all constant.
f=internal/sortalg/radix.go
mutate $f 'if shift == 8 {' 1 1 '\tif true {'
check 'finish LSD buckets without the tie pass' $f TestSortedCopy

# A permutation's routing is the one-off Owner's (DESIGN.md §7): the
# division-free table corrects a cell's first owner by one where the next
# partition starts inside the cell. Off by one at that start, the first
# index of every partition that begins mid-cell goes to the VP before it.
f=internal/cgm/partition.go
mutate $f 'if g >= o.lo[k+1] {' 1 1 '\tif g > o.lo[k+1] {'
check 'owner lookup off by one at a partition start' $f TestOwnersMatchOwner

# No I/O error is dropped, in the baseline either: MergeSort waits every
# parallel I/O before it begins the next, and that wait is the only report
# of a transfer that failed (a disk fault never fails a begin). With the
# wait's error dropped the sort finishes with a wrong output and no error,
# under the sticky fault and the one-shot one alike.
f=internal/sortalg/extsort.go
mutate $f 'return s.pend.Wait()' 1 1 '\t_ = s.pend.Wait()\n\treturn nil'
check 'drop MergeSort'"'"'s wait error' $f TestMergeSortSurfacesDiskFaults

# A disk error belongs to the transfer that met it: the workers coalesce
# queued single-track transfers into one batch call, and a batch that
# fails is re-issued one track at a time so each Pending gets its own
# transfer's error. Without the re-issue, one poisoned track fails every
# request that happened to share its batch.
f=internal/pdm/array.go
mutate $f 'if err != nil && len(ops) > 1 {' 1 1 '\t\tif false {'
check 'a failed batch fails every transfer in it' $f TestBatchFailureAttributedPerTransfer

# Live prefixes meet on disk (DESIGN.md §18): the first slot of each pair
# (a, a + D) is stored back to front, so on every disk its prefix grows
# towards the second slot's and the pair reads or writes as one run of
# tracks. Stored front to back, both prefixes start at their slot's own
# first track and every message of a consecutive burst is a run again.
f=internal/layout/matrix.go
mutate $f 't += 2*before(i) + size - 1 - j' 1 1 '\t\tt += 2*before(i) + j'
check 'store the first slot of each pair front to back' $f TestLivePrefixesMeet

# What a program builds out of lent scratch outlives its superstep only as
# a copy (DESIGN.md §17): keep and the batches copy out of the arena's
# chunks as out of its region. Ignoring the chunks, an output or a batched
# message borrowed beyond the region is handed on as it is, and CheckedIO
# zeroes it at release.
f=internal/core/vpmem.go
mutate $f 'for _, c := range m.chunks {' 2 1 '\tfor _, c := range m.chunks[:0] {'
check 'keep ignores the lent chunks' $f TestScratchAliasSafety

# Partners write back to back (DESIGN.md §18): at K ≥ 3 the engine holds
# the writes of the first VP of each facing pair until its partner's
# commit, so both VPs' message prefixes reach each disk's queue in one
# stretch and one positioning serves the pair. With every VP's writes
# begun at its own commit, the reads begun between them cut each pair in
# two and the sort pays a run per message again.
f=internal/core/engine.go
mutate $f 'if K >= 3 && pr.lead[pos] {' 1 1 '\t\t\tif false {'
check 'begin each VP'"'"'s writes at its own commit' $f TestPositioningsPerDisk

# Contexts face each other (DESIGN.md §18): the lead of each facing pair
# stores its context back to front from the pair boundary, so its live
# prefix ends where its partner's begins and the pair's two context
# transfers are one run of tracks on every disk. Stored front to back,
# the lead's prefix starts at its run's first block and a gap of the
# run's dead blocks parts it from its partner's.
mutate $f 'return (pos+1)*cb - nb, true' 1 1 '\t\treturn pos * cb, false'
check 'store the lead'"'"'s context front to back' $f TestContextPairsMeet

# Auto depth prices the Config's own disks (DESIGN.md §17): in-memory and
# page-cache disks never position, so auto runs them at the floor of 2.
# Priced as the default device instead, they hold eight slot images that
# hide nothing.
f=internal/core/depth.go
mutate $f 'if cfg.NewDisk == nil && !cfg.DirectIO {' 1 1 '\tif false {'
check 'price every Config as the default device' $f TestPipelineDepthResolved

# One PSRS (DESIGN.md §7): the record order runs Sorter's rounds, so its
# bucket k is (splitter[k-1], splitter[k]] in the order of (key, source
# VP, position) as well: a VP before the splitter's source cuts at the
# upper bound of its key. Cut at the lower bound, the items equal to a
# splitter go to the next VP: the output is still sorted, but its slabs
# are no longer Sorter's, and the geometry programs built on the slabs
# see other ones.
f=internal/sortalg/psrs.go
mutate $f 's.Cmp(key, xs[i]) < 0' 1 1 \
	'\treturn sort.Search(len(xs), func(i int) bool { return s.Cmp(key, xs[i]) <= 0 })'
check 'cut the record order'"'"'s buckets at the lower bound' $f TestPSRSInMemory

# Permutations deliver in place (DESIGN.md §6): round 1 places what it
# receives into lent scratch, and the wrapper's Output writes the values
# straight into the caller's result. A round 1 that makes its partition
# instead allocates 16 bytes an item the engine never needed.
f=internal/permute/permute.go
mutate $f 'st := vp.Scratch(hi - lo)' 1 1 '\t\tst := make([]Item, hi-lo)'
check 'round 1 places into make, not vp.Scratch' $f TestDeliveryAllocation

# Permutations read their input in place (DESIGN.md §7): the wrappers
# hand the engine empty partitions, and each VP's Init reads its own
# positions of the caller's vectors. Partitions of Items built again cost
# 16 bytes an item.
mutate $f 'res, err := core.RunPar[Item](d, Codec{}, cfg, make([][]Item, v))' 1 1 \
	'\tparts := make([][]Item, v)\n\tfor i := range parts {\n\t\tlo, hi := cgm.PartRange(n, v, i)\n\t\tparts[i] = make([]Item, hi-lo)\n\t\tfor k := range parts[i] {\n\t\t\tparts[i][k] = Item{Val: vals[lo+k]}\n\t\t}\n\t}\n\tres, err := core.RunPar[Item](d, Codec{}, cfg, parts)'
check 'the wrappers build Item partitions again' $f TestDeliveryAllocation

# Sorts deliver in place (DESIGN.md §7): EMSort's last merge level writes
# each VP's bucket straight into the caller's result, at the offset the
# round-1 cut table gives. A merge into a made run that is then copied
# allocates 8 bytes an item the sort never needed; a VP that counts its
# own column of the table starts past its range.
f=internal/sortalg/psrs.go
mutate $f 'mergeRuns(o, runs, dst, vp.Scratch)' 1 1 \
	'\t\ttmp := make([]T, total)\n\t\tmergeRuns(o, runs, tmp, vp.Scratch)\n\t\tcopy(dst, tmp)'
check 'merge the last level into make, then copy' $f TestSortDeliveryAllocation

mutate $f 'for _, c := range d.cuts[s*v : s*v+k] {' 1 1 \
	'\t\tfor _, c := range d.cuts[s*v : s*v+k+1] {'
check 'a VP'"'"'s offset counts its own column' $f TestSortDeliveryCheckedIO

# BalancedRouting bins element ℓ of msg_{i,j} into bin (i+j+ℓ) mod v
# (DESIGN.md §7): the staggered round-robin is what holds every balanced
# message to Theorem 1's bound. A PhaseA that drops ℓ puts each message
# whole into bin (i+j) mod v, and the fuzz target's seed corpus finds a
# bin over the bound.
f=internal/balance/balance.go
mutate $f 'if b++; b == v {' 1 1 '\t\t\tif false {'
check 'PhaseA bins by (i+j) mod v, dropping l' $f FuzzBalancedRouting

# Balanced contexts are the inner program's own (DESIGN.md §6): the
# wrapper forwards vp, and its routing borrows from the arena. A wrapper
# that copies State into a made slice every round allocates a context a
# round that the balanced sort never needed (about 24 bytes an item).
mutate $f 'r := round / 2' 1 1 '\tr := round / 2\n\tvp.State = append(make([]T, 0, len(vp.State)), vp.State...)'
check 'the wrapper copies State every round' $f TestSortDeliveryAllocation

# A context that shrinks gives back only what it shrank out of (DESIGN.md
# §6): the blocks of its old run that the new run does not cover. The
# engine discards them after it begins the new run's write, so discarding
# the whole old run drops blocks that write is filling; CheckedIO reports
# the next round's read of them as uninitialised, on the ragged program
# whose contexts shrink to a random length every round, and on the
# equivalence suite's shrink, whose contexts shrink by a quarter.
f=internal/core/engine.go
mutate $f 'dead, n := ctxDead(pr.lead, pos, e.cb, old, nb)' 1 1 \
	'\t\tdead, n := ctxDead(pr.lead, pos, e.cb, old, 0)'
check 'discard the whole old context run' $f TestLivePrefixProperties

mutate $f 'dead, n := ctxDead(pr.lead, pos, e.cb, old, nb)' 1 1 \
	'\t\tdead, n := ctxDead(pr.lead, pos, e.cb, old, 0)'
check 'discard the whole old context run' $f TestPipelineDepthEquivalence

# A discarded block is uninitialised again: checked mode drops it from the
# written set, so a read of it is ErrCheckUninitRead before any disk sees
# it. Left in the set, the read reaches the disk, which gave the track
# back.
f=internal/pdm/array.go
mutate $f 'a.check.discard(reqs)' 1 1 '\t\t_ = reqs'
check 'Discard leaves the written set alone' $f TestDiskArrayDiscard

echo "contract-selftest: all thirty-eight mutations caught"
