package exp

import (
	"fmt"

	"after/internal/baselines"
	"after/internal/core"
	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/occlusion"
	"after/internal/sim"
	"after/internal/stats"
)

// methodOrder is the paper's column order for Tables II–IV.
var methodOrder = []string{"POSHGNN", "Random", "Nearest", "MvAGC", "GraFrank", "DCRNN", "TGCN", "COMURNet"}

// comparisonTable runs the full method comparison on one dataset kind —
// the shared engine behind Tables II (Timik), III (SMM), and IV (Hub).
func comparisonTable(name, title string, kind dataset.Kind, o Options) (*Table, error) {
	recs, testRoom, targets, err := comparisonSetup(kind, o)
	if err != nil {
		return nil, err
	}
	episodes, dogs, err := sim.EvaluateEpisodes(recs, testRoom, targets, Beta)
	if err != nil {
		return nil, err
	}
	results := sim.Means(recs, episodes)
	t := &Table{Name: name, Title: title}
	for _, m := range methodOrder {
		t.Rows = append(t.Rows, Row{Method: m, Result: results[m]})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("room N=%d T=%d, %d targets, beta=%.2f",
		testRoom.N, testRoom.T(), len(targets), Beta))
	note, err := significanceNote(recs, results, episodes, testRoom, dogs)
	if err != nil {
		note = "significance test unavailable: " + err.Error()
	}
	if note != "" {
		t.Notes = append(t.Notes, note)
	}
	return t, nil
}

// comparisonSetup trains the learned methods on one dataset kind and
// returns every recommender of the comparison, in methodOrder, with the
// held-out test room and the targets they are evaluated on.
func comparisonSetup(kind dataset.Kind, o Options) ([]sim.Recommender, *dataset.Room, []int, error) {
	o = o.withDefaults()
	cfg := o.datasetConfig(kind)

	// Three generated rooms: two for training, one for validation; a
	// fourth, seed-disjoint room is the held-out test scene (the paper's
	// 80/20 split over sampled conference instances).
	rooms, err := dataset.GenerateRooms(cfg, 3)
	if err != nil {
		return nil, nil, nil, err
	}
	trainRooms, valRoom := rooms[:2], rooms[2]
	testCfg := cfg
	testCfg.Seed += 104729
	testRoom, err := dataset.Generate(testCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	eps := episodesFrom(trainRooms, 3)
	spec := o.spec()

	posh, err := TrainPOSHGNN(core.Config{UseMIA: true, UseLWP: true}, eps, valRoom, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	tgcn, err := trainRecurrent(baselines.NewTGCN, eps, valRoom, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	dcrnn, err := trainRecurrent(baselines.NewDCRNN, eps, valRoom, spec)
	if err != nil {
		return nil, nil, nil, err
	}

	recs := []sim.Recommender{
		POSHGNNRec(posh, "POSHGNN"),
		baselines.Random{Seed: o.Seed + 5},
		baselines.Nearest{},
		baselines.MvAGC{Seed: o.Seed + 6},
		&baselines.GraFrank{Seed: o.Seed + 7},
		dcrnn,
		tgcn,
		baselines.COMURNet{Seed: o.Seed + 8, NodeBudget: comurBudget(testRoom.N)},
	}
	return recs, testRoom, sim.DefaultTargets(testRoom, 4), nil
}

// significanceNote reproduces the paper's statistical claim ("differences
// ... statistically significant with a p-value ≤ ...") with a paired t-test
// of POSHGNN against its strongest competitor over pooled per-step
// utilities on identical scenes. It scores the traces the table evaluation
// recorded (episodes[r][i] is recs[r] on dogs[i]) rather than running any
// episode again.
func significanceNote(recs []sim.Recommender, results map[string]metrics.Result,
	episodes [][]sim.EpisodeResult, room *dataset.Room, dogs []*occlusion.DOG) (string, error) {
	runnerUp := ""
	for name, res := range results {
		if name == "POSHGNN" {
			continue
		}
		if runnerUp == "" || res.Utility > results[runnerUp].Utility {
			runnerUp = name
		}
	}
	if runnerUp == "" {
		return "", nil
	}
	byName := map[string][]sim.EpisodeResult{}
	for r, rec := range recs {
		byName[rec.Name()] = episodes[r]
	}
	var a, b []float64
	for i, dog := range dogs {
		for name, dst := range map[string]*[]float64{"POSHGNN": &a, runnerUp: &b} {
			series, err := metrics.StepSeries(room, dog, byName[name][i].Rendered, Beta)
			if err != nil {
				return "", err
			}
			*dst = append(*dst, series...)
		}
	}
	tt, err := stats.PairedTTest(a, b)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("POSHGNN vs %s (strongest competitor): paired t-test over %d steps, p = %.2g",
		runnerUp, len(a), tt.P), nil
}

// comurBudget keeps the exact solver's per-step cost bounded as rooms grow
// while remaining orders of magnitude above the learned methods.
func comurBudget(n int) int {
	if n > 100 {
		return 60_000
	}
	return 200_000
}

// Table2 regenerates Table II: the method comparison on the Timik-like
// dataset.
func Table2(o Options) (*Table, error) {
	return comparisonTable("Table II", "POSHGNN and baselines on Timik dataset", dataset.Timik, o)
}

// Table3 regenerates Table III: the method comparison on the SMM-like
// dataset.
func Table3(o Options) (*Table, error) {
	return comparisonTable("Table III", "POSHGNN and baselines on SMM dataset", dataset.SMM, o)
}

// Table4 regenerates Table IV: the method comparison on the Hub-like
// dataset (dozens of users, native slow trajectories).
func Table4(o Options) (*Table, error) {
	return comparisonTable("Table IV", "POSHGNN and baselines on Hub dataset", dataset.Hubs, o)
}

// Table5 regenerates Table V: the ablation study on Hub — Full POSHGNN vs
// PDR w/ MIA (no LWP) vs Only PDR (no MIA, no LWP).
func Table5(o Options) (*Table, error) {
	o = o.withDefaults()
	cfg := o.datasetConfig(dataset.Hubs)
	rooms, err := dataset.GenerateRooms(cfg, 3)
	if err != nil {
		return nil, err
	}
	trainRooms, valRoom := rooms[:2], rooms[2]
	// Ablation differences are small (the paper's Table V spans ~2%), so
	// the evaluation averages over two held-out rooms and more targets to
	// keep them above the noise floor.
	testCfg := cfg
	testCfg.Seed += 104729
	testRoomA, err := dataset.Generate(testCfg)
	if err != nil {
		return nil, err
	}
	testCfg.Seed += 104729
	testRoomB, err := dataset.Generate(testCfg)
	if err != nil {
		return nil, err
	}
	eps := episodesFrom(trainRooms, 3)
	spec := o.spec()

	variants := []struct {
		label string
		base  core.Config
	}{
		{"Full", core.Config{UseMIA: true, UseLWP: true}},
		{"PDR w/ MIA", core.Config{UseMIA: true, UseLWP: false}},
		{"Only PDR", core.Config{UseMIA: false, UseLWP: false}},
	}
	var recs []sim.Recommender
	for _, v := range variants {
		m, err := TrainPOSHGNN(v.base, eps, valRoom, spec)
		if err != nil {
			return nil, err
		}
		recs = append(recs, POSHGNNRec(m, v.label))
	}
	resA, err := sim.Evaluate(recs, testRoomA, sim.DefaultTargets(testRoomA, 6), Beta)
	if err != nil {
		return nil, err
	}
	resB, err := sim.Evaluate(recs, testRoomB, sim.DefaultTargets(testRoomB, 6), Beta)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: "Table V", Title: "Ablation study for POSHGNN on Hub"}
	for _, v := range variants {
		t.Rows = append(t.Rows, Row{
			Method: v.label,
			Result: metrics.Mean([]metrics.Result{resA[v.label], resB[v.label]}),
		})
	}
	return t, nil
}

// Table6 regenerates Table VI: POSHGNN's sensitivity to the user count N on
// the SMM-like dataset, half of the users being MR (in-person).
func Table6(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{Name: "Table VI", Title: "Sensitivity to user number N (half MR)"}
	ns := []int{10, 20, 50, 100, 200, 500}
	for _, n := range ns {
		cfg := o.datasetConfig(dataset.SMM)
		cfg.RoomUsers = o.scaleInt(n, minInt(n, 6))
		if cfg.RoomUsers < 6 {
			cfg.RoomUsers = 6
		}
		if cfg.PlatformUsers < 2*cfg.RoomUsers {
			cfg.PlatformUsers = 2 * cfg.RoomUsers
		}
		row, err := poshgnnOnly(fmt.Sprintf("N = %d", n), cfg, o)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

// Table7 regenerates Table VII: POSHGNN's sensitivity to the proportion of
// VR (remote) users on the SMM-like dataset.
func Table7(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{Name: "Table VII", Title: "Sensitivity to the proportion of VR users"}
	for _, frac := range []float64{0.75, 0.5, 0.25} {
		cfg := o.datasetConfig(dataset.SMM)
		cfg.VRFraction = frac
		row, err := poshgnnOnly(fmt.Sprintf("VR = %.0f%%", frac*100), cfg, o)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

// poshgnnOnly trains and evaluates the full POSHGNN under one dataset
// configuration, returning a single row (the sensitivity-test protocol).
func poshgnnOnly(label string, cfg dataset.Config, o Options) (*Row, error) {
	rooms, err := dataset.GenerateRooms(cfg, 3)
	if err != nil {
		return nil, err
	}
	trainRooms, valRoom := rooms[:2], rooms[2]
	testCfg := cfg
	testCfg.Seed += 104729
	testRoom, err := dataset.Generate(testCfg)
	if err != nil {
		return nil, err
	}
	eps := episodesFrom(trainRooms, 3)
	m, err := TrainPOSHGNN(core.Config{UseMIA: true, UseLWP: true}, eps, valRoom, o.spec())
	if err != nil {
		return nil, err
	}
	rec := POSHGNNRec(m, label)
	results, err := sim.Evaluate([]sim.Recommender{rec}, testRoom, sim.DefaultTargets(testRoom, 4), Beta)
	if err != nil {
		return nil, err
	}
	return &Row{Method: label, Result: results[label]}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
