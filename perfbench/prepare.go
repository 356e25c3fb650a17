package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"goldeneye"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/zoo"
)

// History geometry: the resnet_s fleet jobs the workload resubmits, and
// the tiny jobs that give boot replay a realistic journal to read.
const (
	historyRepeats = 8
	historyTiny    = 600 // per node
)

// prepare makes the untimed state every run starts from: the trained
// models in the benchmark's own zoo, and the fleet history. Both are
// written once per checkout and reused.
func prepare(ctx context.Context, e *env) error {
	for _, name := range []string{cnnDeep.model, vitShallow.model, tinyModel} {
		if _, _, err := zoo.PretrainedIn(e.zooDir, name); err != nil {
			return err
		}
	}
	if _, err := os.Stat(filepath.Join(e.histDir, "specs.json")); err == nil {
		return nil
	}
	return writeHistory(ctx, e)
}

// requireCached refuses to time a run whose zoo load would train.
func requireCached(zooDir, model string) error {
	files, err := filepath.Glob(filepath.Join(zooDir, model+"-*.gob"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("model %s is not cached in %s; refusing to time a run that would train", model, zooDir)
	}
	return nil
}

const tinyModel = "mlp"

func tinySpec(seed uint64) (*server.JobSpec, error) {
	f, err := goldeneye.ParseFormat("int8")
	if err != nil {
		return nil, err
	}
	return &server.JobSpec{Model: tinyModel, Samples: 1, Campaign: goldeneye.CampaignConfig{
		Format: f, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
		Layer: -1, Injections: 1, Seed: seed,
	}}, nil
}

// writeHistory runs the history through a live service and keeps its
// journals and result cache: the resubmittable resnet_s jobs through the
// coordinator (so the nodes hold their shard idempotency keys), then the
// tiny jobs straight to each node.
func writeHistory(ctx context.Context, e *env) error {
	tmp := e.histDir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	c, err := bootCluster(ctx, filepath.Join(tmp, "state"), e.zooDir, nil)
	if err != nil {
		return err
	}
	specs, err := runHistory(ctx, c)
	c.shutdown()
	if err != nil {
		return err
	}
	b, err := json.Marshal(specs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "specs.json"), b, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(e.histDir); err != nil {
		return err
	}
	return os.Rename(tmp, e.histDir)
}

func readHistory(dir string) ([]*server.JobSpec, error) {
	b, err := os.ReadFile(filepath.Join(dir, "specs.json"))
	if err != nil {
		return nil, err
	}
	var specs []*server.JobSpec
	if err := json.Unmarshal(b, &specs); err != nil {
		return nil, fmt.Errorf("decode history: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("history in %s holds no jobs", dir)
	}
	return specs, nil
}

func runHistory(ctx context.Context, c *cluster) ([]*server.JobSpec, error) {
	var specs []*server.JobSpec
	cli := client.NewWithOptions(c.url, client.Options{Transport: c.coordTP})
	for k := 1; k <= historyRepeats; k++ {
		spec, err := fleetSpec(uint64(k))
		if err != nil {
			return nil, err
		}
		if _, err := cli.Run(ctx, spec, nil); err != nil {
			return nil, fmt.Errorf("history job %d: %w", k, err)
		}
		specs = append(specs, spec)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.nodeURLs))
	for i, url := range c.nodeURLs {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			nc := client.NewWithOptions(url, client.Options{Transport: c.coordTP})
			for k := 0; k < historyTiny && errs[i] == nil; k++ {
				spec, err := tinySpec(uint64(i*historyTiny + k + 1))
				if err == nil {
					_, err = nc.Run(ctx, spec, nil)
				}
				errs[i] = err
			}
		}(i, url)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tiny history job on node %d: %w", i, err)
		}
	}
	return specs, nil
}
