"""CASTAN proper: the end-to-end adversarial workload synthesis pipeline."""
