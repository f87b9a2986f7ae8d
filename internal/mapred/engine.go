package mapred

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// TaskReport records where a map task ran and what it did.
type TaskReport struct {
	Split string
	Node  hdfs.NodeID
	Stats sim.TaskStats
}

// Result is the outcome of a job run: per-task and aggregated work
// counters, ready to be priced by a sim.CostModel.
type Result struct {
	// MapTasks reports each map task in split order.
	MapTasks []TaskReport
	// Total aggregates all map-task counters. Because the cost model is
	// linear, pricing Total equals summing per-task prices.
	Total sim.TaskStats
	// ReduceStats aggregates reduce-side work (output writing).
	ReduceStats sim.TaskStats
	// ReduceGroups is the number of distinct keys reduced.
	ReduceGroups int64
	// OutputRecords is the number of pairs written by the job.
	OutputRecords int64
	// Plan summarizes split generation when the input format plans
	// (PlannedInputFormat): how many split-directories existed and how
	// many were elided before scheduling. Zero-valued otherwise.
	Plan scan.PruneReport
	// Agg holds the aggregation result for jobs whose scan carried one
	// (scan.Spec.Agg): every map task's partial state merged. Nil for
	// plain map/reduce jobs. Agg.Rows() yields the result rows.
	Agg *scan.AggState
}

type shufflePair struct {
	key, value any
	keyBytes   []byte
	valBytes   []byte
}

type taskOutput struct {
	stats      sim.TaskStats
	partitions [][]shufflePair
	agg        *scan.AggState // aggregation jobs: the task's partial fold
}

// Run executes the job: schedule splits for locality, run map tasks in
// parallel, shuffle, sort, and reduce.
func Run(fs *hdfs.FileSystem, job *Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	var splits []Split
	var plan scan.PruneReport
	var err error
	if pf, ok := job.Input.(PlannedInputFormat); ok {
		splits, plan, err = pf.PlannedSplits(fs, &job.Conf)
	} else {
		splits, err = job.Input.Splits(fs, &job.Conf)
	}
	if err != nil {
		return nil, err
	}
	nodes := scheduleSplits(fs, splits)

	numParts := job.Conf.NumReducers
	if job.Reducer == nil || numParts < 1 {
		numParts = 1
	}

	outputs := make([]*taskOutput, len(splits))
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range taskCh {
				out, err := runMapTask(fs, job, splits[i], nodes[i], numParts)
				if err != nil {
					fail(fmt.Errorf("mapred: map task %d (%s): %w", i, splits[i], err))
					continue
				}
				outputs[i] = out
			}
		}()
	}
	for i := range splits {
		taskCh <- i
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{Plan: plan}
	for i, out := range outputs {
		res.MapTasks = append(res.MapTasks, TaskReport{Split: splits[i].String(), Node: nodes[i], Stats: out.stats})
		res.Total.Add(out.stats)
	}
	// Elided splits ran no task, so the scheduler's pruning is credited to
	// the job's aggregate counters directly; RecordsPruned then means
	// "records proven irrelevant at any tier" regardless of where the
	// proof fired.
	res.Total.SplitsPruned += int64(plan.SplitsPruned)
	res.Total.RecordsPruned += plan.RecordsPruned

	if agg, err := jobAggregate(&job.Conf); err != nil {
		return nil, err
	} else if agg != nil {
		// Aggregation jobs have no shuffle or reduce: merge the tasks'
		// partial states into the job's answer.
		merged := scan.NewAggState(agg)
		for _, out := range outputs {
			if out.agg == nil {
				continue
			}
			if err := merged.Merge(out.agg); err != nil {
				return nil, err
			}
		}
		res.Agg = merged
		return res, nil
	}

	if err := reducePhase(fs, job, outputs, numParts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// scheduleSplits assigns each split to a node, preferring the split's
// locality candidates and balancing assignment counts — a deterministic
// stand-in for Hadoop's locality-aware task scheduler.
func scheduleSplits(fs *hdfs.FileSystem, splits []Split) []hdfs.NodeID {
	n := fs.Config().Nodes
	load := make([]int, n)
	nodes := make([]hdfs.NodeID, len(splits))
	for i, sp := range splits {
		best := hdfs.NodeID(-1)
		for _, c := range sp.Hosts(fs) {
			if int(c) < 0 || int(c) >= n {
				continue
			}
			if best < 0 || load[c] < load[best] {
				best = c
			}
		}
		if best < 0 {
			// No locality preference: least-loaded node overall.
			best = 0
			for j := 1; j < n; j++ {
				if load[j] < load[best] {
					best = hdfs.NodeID(j)
				}
			}
		}
		nodes[i] = best
		load[best]++
	}
	return nodes
}

func runMapTask(fs *hdfs.FileSystem, job *Job, split Split, node hdfs.NodeID, numParts int) (*taskOutput, error) {
	out := &taskOutput{partitions: make([][]shufflePair, numParts)}
	reader, err := job.Input.Open(fs, &job.Conf, split, node, &out.stats)
	if err != nil {
		return nil, err
	}
	defer reader.Close()

	if agg, err := jobAggregate(&job.Conf); err != nil {
		return nil, err
	} else if agg != nil {
		// The aggregation is answered inside the scan when the reader can
		// (CIF: zone stats and vectors); other formats fold record by
		// record here. Either way no record reaches a map function, so
		// RecordsProcessed stays zero.
		var st *scan.AggState
		if ar, ok := reader.(AggRecordReader); ok {
			st, err = ar.DrainAggregate()
		} else {
			st, err = drainAggRecords(reader, agg, &out.stats)
		}
		if err != nil {
			return nil, err
		}
		out.agg = st
		return out, nil
	}

	emit := emitInto(out, numParts)

	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out.stats.RecordsProcessed++
		if err := job.Mapper.Map(k, v, emit); err != nil {
			return nil, err
		}
	}
	if job.Combiner != nil {
		if err := combine(job, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// drainAggRecords is the capability-free aggregation path: the reader's
// records fold one by one through their field accessors. Formats with an
// AggRecordReader never come here; this keeps aggregation correct (if not
// fast) over any input.
func drainAggRecords(reader RecordReader, agg *scan.Aggregate, stats *sim.TaskStats) (*scan.AggState, error) {
	st := scan.NewAggState(agg)
	for {
		_, v, ok, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return st, nil
		}
		rec, isRec := v.(serde.Record)
		if !isRec {
			return nil, fmt.Errorf("mapred: cannot aggregate over %T records (input format lacks AggRecordReader)", v)
		}
		if err := st.FoldRecord(scan.Getter(rec.Get)); err != nil {
			return nil, err
		}
		stats.RowsAggregated++
	}
}

// emitInto returns the Emit closure appending map-output pairs to out's
// partitions with the standard shuffle accounting. Solo map tasks and each
// member sink of a shared scan build their emits here, so per-job output
// accounting is identical in both execution modes.
func emitInto(out *taskOutput, numParts int) Emit {
	return func(key, value any) error {
		kb, err := KeyBytes(key)
		if err != nil {
			return err
		}
		vb, err := KeyBytes(value)
		if err != nil {
			return err
		}
		p, err := Partition(key, numParts)
		if err != nil {
			return err
		}
		out.partitions[p] = append(out.partitions[p], shufflePair{key: key, value: value, keyBytes: kb, valBytes: vb})
		out.stats.OutputRecords++
		out.stats.OutputBytes += SizeOf(key) + SizeOf(value)
		return nil
	}
}

// combine runs the job's combiner over each partition of one map task's
// output, shrinking the shuffle. Output accounting is recomputed so
// OutputBytes reflects what actually crosses the network.
func combine(job *Job, out *taskOutput) error {
	var outBytes, outRecords int64
	for p := range out.partitions {
		pairs := out.partitions[p]
		if len(pairs) == 0 {
			continue
		}
		var combined []shufflePair
		emit := func(key, value any) error {
			kb, err := KeyBytes(key)
			if err != nil {
				return err
			}
			vb, err := KeyBytes(value)
			if err != nil {
				return err
			}
			combined = append(combined, shufflePair{key: key, value: value, keyBytes: kb, valBytes: vb})
			outRecords++
			outBytes += SizeOf(key) + SizeOf(value)
			return nil
		}
		if err := groupAndReduce(job.Combiner, pairs, emit); err != nil {
			return err
		}
		out.partitions[p] = combined
	}
	out.stats.OutputBytes = outBytes
	out.stats.OutputRecords = outRecords
	return nil
}

// reducePhase merges map outputs per partition, sorts, groups by key, and
// runs the reducer (or writes map output directly for map-only jobs).
func reducePhase(fs *hdfs.FileSystem, job *Job, outputs []*taskOutput, numParts int, res *Result) error {
	for p := 0; p < numParts; p++ {
		var pairs []shufflePair
		for _, out := range outputs {
			pairs = append(pairs, out.partitions[p]...)
		}

		var writer RecordWriter
		var err error
		if job.Output != nil {
			writer, err = job.Output.Open(fs, &job.Conf, p, &res.ReduceStats)
			if err != nil {
				return err
			}
		}
		write := func(k, v any) error {
			res.OutputRecords++
			if writer == nil {
				return nil
			}
			return writer.Write(k, v)
		}

		if job.Reducer == nil {
			for _, pr := range pairs {
				if err := write(pr.key, pr.value); err != nil {
					return err
				}
			}
		} else {
			if err := sortAndReduce(job, pairs, write, res); err != nil {
				return err
			}
		}
		if writer != nil {
			if err := writer.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortAndReduce(job *Job, pairs []shufflePair, write func(k, v any) error, res *Result) error {
	return groupAndReduceCounted(job.Reducer, pairs, Emit(write), &res.ReduceGroups)
}

// groupAndReduce sorts pairs by key (value bytes as tiebreaker, for fully
// deterministic reduce input), groups equal keys, and applies the reducer.
func groupAndReduce(r Reducer, pairs []shufflePair, emit Emit) error {
	return groupAndReduceCounted(r, pairs, emit, nil)
}

func groupAndReduceCounted(r Reducer, pairs []shufflePair, emit Emit, groups *int64) error {
	var sortErr error
	sort.SliceStable(pairs, func(i, j int) bool {
		c, err := Compare(pairs[i].key, pairs[j].key)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if c != 0 {
			return c < 0
		}
		return string(pairs[i].valBytes) < string(pairs[j].valBytes)
	})
	if sortErr != nil {
		return sortErr
	}
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) {
			c, err := Compare(pairs[i].key, pairs[j].key)
			if err != nil {
				return err
			}
			if c != 0 {
				break
			}
			j++
		}
		values := make([]any, 0, j-i)
		for _, pr := range pairs[i:j] {
			values = append(values, pr.value)
		}
		if groups != nil {
			*groups++
		}
		if err := r.Reduce(pairs[i].key, values, emit); err != nil {
			return err
		}
		i = j
	}
	return nil
}
