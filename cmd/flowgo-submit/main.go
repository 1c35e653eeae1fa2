// Command flowgo-submit is the CLI client of flowgo-agent: it POSTs a task
// to an agent's REST API ("Start Application" in the paper's Fig. 6) and
// polls until the result arrives.
//
// Example:
//
//	flowgo-submit -agent http://127.0.0.1:8080 -fn square -args '[12]'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/agent"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowgo-submit:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		agentURL = flag.String("agent", "http://127.0.0.1:8080", "agent base URL")
		fn       = flag.String("fn", "echo", "function name")
		args     = flag.String("args", "[]", "JSON array of arguments")
		timeout  = flag.Duration("timeout", time.Minute, "overall deadline")
	)
	flag.Parse()

	var rawArgs []json.RawMessage
	if err := json.Unmarshal([]byte(*args), &rawArgs); err != nil {
		return fmt.Errorf("parse -args: %w", err)
	}
	client := agent.NewClient(10*time.Second, 50*time.Millisecond)
	id, err := client.Submit(*agentURL, *fn, rawArgs)
	if err != nil {
		return err
	}
	fmt.Println("task id:", id)

	deadline := time.AfterFunc(*timeout, func() {
		fmt.Fprintf(os.Stderr, "flowgo-submit: task %s not finished after %v\n", id, *timeout)
		os.Exit(1)
	})
	defer deadline.Stop()
	result, err := client.Wait(*agentURL, id)
	if err != nil {
		return err
	}
	fmt.Println("result:", string(result))
	return nil
}
