package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// The benchmark runs two helper processes, both the benchmark binary
// re-executed with an environment variable set: the wire generator
// (loadgen.go) and the reference process (reference.go).  Each reads one
// configuration and then one command at a time from its stdin as JSON
// lines, answers each command with one JSON line on stdout, and exits at
// end of input.  Their CPU is their own: the server process's getrusage
// accounting never includes it.
const (
	loadgenEnv   = "BENCHMARK_LOADGEN"
	referenceEnv = "BENCHMARK_REFERENCE"
)

// childMain runs this process as a helper when the environment asks for
// one, and reports whether it did and with which exit code.
func childMain() (code int, isChild bool) {
	switch {
	case os.Getenv(loadgenEnv) != "":
		return loadgenMain(os.Stdin, os.Stdout), true
	case os.Getenv(referenceEnv) != "":
		return referenceMain(os.Stdin, os.Stdout), true
	}
	return 0, false
}

// child is a running helper process.
type child struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	enc  *json.Encoder
	dec  *json.Decoder
	done bool
}

// startChild starts the helper that env selects and sends it cfg.
func startChild(name, env string, cfg any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}
	if err := c.enc.Encode(cfg); err != nil {
		c.kill()
		return nil, fmt.Errorf("configure %s: %w", name, err)
	}
	return c, nil
}

// call sends one command and decodes the answer into reply.
func (c *child) call(cmd, reply any) error {
	if err := c.enc.Encode(cmd); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if err := c.dec.Decode(reply); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// stop ends the helper's input and waits for it to exit.
func (c *child) stop() error {
	if c.done {
		return nil
	}
	c.done = true
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// kill stops a helper that is still running and waits for it.
func (c *child) kill() {
	if c.done {
		return
	}
	c.done = true
	c.cmd.Process.Kill()
	// The exit status of a killed process carries no information.
	_ = c.cmd.Wait()
}
