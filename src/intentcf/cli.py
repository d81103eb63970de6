"""Command-line surface: prepare, train, eval, channels, recommend, cooccur, inspect.

Heavy imports happen inside handlers so --threads can pin BLAS thread
counts before numpy is loaded. Exit codes: 0 success, 1 runtime failure
(a stdout closed by its reader included), 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CheckpointError, IntentcfError, ParameterError, UsageError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intentcf", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="BLAS thread count for this process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="filter, split and serialize a ratings file", parents=[common])
    p.add_argument("--ratings", required=True)
    p.add_argument("--genres", default=None, help="item_id|genre1,genre2 file, copied into the output")
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", default=None)
    p.add_argument("--skip-header", action="store_true")
    p.add_argument("--min-interactions", type=int, default=10)
    p.add_argument("--fractions", default="0.6,0.1,0.3")
    p.add_argument("--rating-threshold", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="run the two-stage optimization", parents=[common])
    p.add_argument("--data", required=True, help="directory written by prepare")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--variant", choices=["ddcf", "ddcf-n", "ddcf-s", "k1-baseline"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="ranking metrics on the test split", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cutoffs", default="5,10")
    p.add_argument("--valid", action="store_true", help="evaluate the validation split instead of test")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("channels", help="inspect learned intent channels", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top", type=int, default=10, help="items listed per channel")
    p.add_argument("--user", default=None, help="external user id for the per-user channel view")
    p.add_argument("--user-channels", type=int, default=3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("recommend", help="ranked recommendations for a user", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--user", default=None, help="external user id")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--channel", type=int, default=None, help="rank inside one intent channel")
    p.add_argument("--intent", default=None, metavar="C:W,C:W", help="user-supplied intent distribution")
    p.add_argument("--similar-to", default=None, metavar="ITEM", help="rank items by intent similarity instead")
    p.add_argument("--similarity", choices=["cosine", "symkl"], default="cosine")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cooccur", help="genre co-occurrence of channel top items vs shuffled baseline", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--genres", default=None, help="defaults to genres.txt inside the data directory")
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--shuffles", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", choices=["beta", "phi"], default="beta")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("inspect", help="print a checkpoint's header without reading its arrays", parents=[common])
    p.add_argument("checkpoint")
    p.add_argument("--json", action="store_true")
    return parser


def _report(cfg, args, payload: dict, lines: list[str]) -> None:
    """Print a command's report: under --json the payload beside the
    provenance of the checkpoint's config (a payload key of the same name
    wins, as cooccur's shuffle seed does), else the text lines under one
    provenance line."""
    prov = {"config_hash": cfg.config_hash(), "seed": cfg.seed, "variant": cfg.variant}
    if args.json:
        text = json.dumps({**prov, **payload}, indent=1, sort_keys=True)
    else:
        head = f"config_hash: {prov['config_hash']}  seed: {prov['seed']}  variant: {prov['variant']}"
        text = "\n".join([head, *lines])
    print(text)


def _require_checkpoint(path: str) -> None:
    if not os.path.exists(path):
        raise UsageError(f"checkpoint not found: {path}")


def _load_state_and_data(args, parts: tuple[str, ...] = ("train",)):
    """The checkpoint, the prepared directory's user and item ids, and the
    split parts a command reads: train alone unless it scores held-out
    ratings, none (the split is then None) if it needs only the ids.
    Every model and prior array must be finite: a checkpoint that is not
    raises CheckpointError naming the first array that is not."""
    import numpy as np

    from .data import load_ids, load_split
    from .training import load_checkpoint, model_arrays

    _require_checkpoint(args.checkpoint)
    if not os.path.isdir(args.data):
        raise UsageError(f"prepared data directory not found: {args.data}")
    state = load_checkpoint(args.checkpoint)
    bad = next((name for name, a in model_arrays(state).items() if not np.isfinite(a).all()), None)
    if bad is not None:
        raise CheckpointError(f"checkpoint {args.checkpoint}: array {bad!r} holds a non-finite value")
    split = load_split(args.data, parts) if parts else None
    users, items = (split.train.user_ids, split.train.item_ids) if split else load_ids(args.data)
    if len(items) != state.n_items or len(users) != state.n_users:
        raise UsageError(
            f"checkpoint (N={state.n_users}, M={state.n_items}) does not match "
            f"dataset (N={len(users)}, M={len(items)})"
        )
    return state, users, items, split


def _index_of(ids: list[str], ext_id: str, kind: str) -> int:
    """Internal index of an external user or item id. A CLI call looks up
    one id, so one scan of the list costs less than building a map."""
    try:
        return ids.index(ext_id)
    except ValueError:
        raise UsageError(f"unknown {kind} id {ext_id!r}") from None


def _number_list(flag: str, text: str, kind: type) -> tuple:
    """The comma-separated numbers of a flag's value."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated {kind.__name__} values, got {text!r}") from None


def cmd_prepare(args) -> int:
    from .data import GenreTable, filter_min_interactions, load_ratings, save_split, split_per_user

    if not os.path.exists(args.ratings):
        raise UsageError(f"ratings file not found: {args.ratings}")
    if args.genres and not os.path.exists(args.genres):
        raise UsageError(f"genre file not found: {args.genres}")
    fractions = _number_list("--fractions", args.fractions, float)
    if len(fractions) != 3:
        raise UsageError(f"--fractions needs three comma-separated values, got {args.fractions!r}")
    matrix = load_ratings(args.ratings, delimiter=args.delimiter, skip_header=args.skip_header)
    matrix = filter_min_interactions(matrix, args.min_interactions)
    ds = split_per_user(matrix, seed=args.seed, fractions=fractions, rating_threshold=args.rating_threshold)
    extra = [f"min_interactions: {args.min_interactions}", f"source: {os.path.basename(args.ratings)}"]
    if args.genres:
        table = GenreTable.load(args.genres)
        covered = sum(1 for i in matrix.item_ids if i in table.genres)
        os.makedirs(args.out, exist_ok=True)
        with open(args.genres, encoding="utf-8") as src, \
                open(os.path.join(args.out, "genres.txt"), "w", encoding="utf-8") as dst:
            dst.write(src.read())
        extra.append(f"genre_coverage: {covered}/{matrix.n_items}")
    manifest = save_split(ds, args.out, extra_manifest=extra)
    with open(manifest, encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 0


def _parse_set_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def cmd_train(args) -> int:
    from .data import load_split
    from .training import TrainConfig, read_header, resolve_variant, train

    file_cfg: dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"config file is not UTF-8 text: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
    file_cfg.update(_parse_set_overrides(args.set))
    if args.variant is not None:
        file_cfg["variant"] = args.variant
    if args.seed is not None:
        file_cfg["seed"] = args.seed
    cfg = TrainConfig.from_dict(file_cfg)
    cfg.validate()
    if args.resume is not None:
        _require_checkpoint(args.resume)
        # a resumed run keeps the checkpoint's config; flags may only restate it
        given, saved = resolve_variant(cfg).to_dict(), read_header(args.resume)[1].to_dict()
        differ = [f"{key} ({given[key]!r}, checkpoint {saved[key]!r})"
                  for key in sorted(file_cfg) if key in given and given[key] != saved[key]]
        if differ:
            raise UsageError("--resume continues the checkpoint's config; these keys differ from it: "
                             + ", ".join(differ))
    if not os.path.isdir(args.data):
        raise UsageError(f"prepared data directory not found: {args.data}")
    split = load_split(args.data)
    log = None if args.quiet else lambda r: print(
        f"[{r['stage']:>8} {r['epoch']:>3}] total={r['total']:.1f} "
        f"val={r.get('val_recall_at_10', float('nan')):.4f} tau={r['tau']:.3f} eta={r['eta']:.3f}"
    )
    result = train(split, cfg, args.out, resume_from=args.resume, log=log)
    print(f"best checkpoint: {result.best_checkpoint} (val R@10 = "
          f"{result.best_val if result.best_val > -1 else float('nan'):.4f} at epoch {result.best_epoch})")
    print(f"manifest: {result.manifest_path}")
    return 0


def cmd_eval(args) -> int:
    import dataclasses

    from .evaluation import evaluate
    from .training import scorer_from_state

    state, _, _, split = _load_state_and_data(args, ("train", "valid" if args.valid else "test"))
    cutoffs = _number_list("--cutoffs", args.cutoffs, int)
    if args.valid:
        split = dataclasses.replace(split, test=split.valid)
    report = evaluate(scorer_from_state(state), split, cutoffs=cutoffs)
    _report(state.cfg, args, {"split": "valid" if args.valid else "test", **report.as_dict()},
            [report.text_table()])
    return 0


def cmd_channels(args) -> int:
    import numpy as np

    from .intent import top_items_per_channel
    from .preference import select_top_channels_batch
    from .training import scorer_from_state

    # the channel list needs only the item ids; a user's view scores the user
    state, users, items, split = _load_state_and_data(args, () if args.user is None else ("train",))
    top = top_items_per_channel(state.intent.beta().data, args.top)
    payload: dict = {"k": state.cfg.k, "top": args.top, "channels": []}
    lines = []
    if args.user is not None:
        scorer = scorer_from_state(state)
        u = _index_of(users, args.user, "user")
        gamma = scorer.gamma(split.train, np.array([u]))
        idx, weights = select_top_channels_batch(gamma, min(args.user_channels, state.cfg.k))
        payload["user"] = args.user
        lines.append(f"user {args.user}: top {idx.shape[1]} intent channels")
        for c, w in zip(idx[0], weights[0]):
            names = [items[j] for j, _ in top[c]]
            payload["channels"].append({"channel": int(c), "weight": float(w), "top_items": names})
            lines.append(f"  channel {c} (weight {w:.3f}): {', '.join(names)}")
    else:
        for c, channel in enumerate(top):
            names = [items[j] for j, _ in channel]
            probs = [p for _, p in channel]
            payload["channels"].append(
                {"channel": c, "top_items": names, "probabilities": [round(p, 6) for p in probs]}
            )
            lines.append(f"channel {c}: {', '.join(names)}")
    _report(state.cfg, args, payload, lines)
    return 0


def _parse_intent(spec: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for part in spec.split(","):
        if ":" not in part:
            raise UsageError(f"--intent expects C:W pairs, got {part!r}")
        c, w = part.split(":", 1)
        try:
            channel, weight = int(c), float(w)
        except ValueError:
            raise UsageError(f"bad intent pair {part!r}") from None
        if channel in out:
            raise UsageError(f"--intent names channel {channel} twice")
        out[channel] = weight
    return out


def cmd_recommend(args) -> int:
    from .recommend import (
        IntentOverride,
        recommend_blended,
        recommend_in_channel,
        recommend_with_intent,
        similar_items,
    )
    from .training import scorer_from_state

    # an item-similarity ranking needs only the item ids
    state, users, items, split = _load_state_and_data(args, () if args.similar_to is not None else ("train",))
    scorer = scorer_from_state(state)
    if args.similar_to is not None:
        j = _index_of(items, args.similar_to, "item")
        ranked = similar_items(state.intent, scorer.phi, j, args.n, measure=args.similarity)
        rows = [{"item": items[i], "similarity": round(s, 6)} for i, s in ranked]
        lines = [f"items similar to {args.similar_to} ({args.similarity}):"]
        lines += [f"  {r['item']}  {r['similarity']:.4f}" for r in rows]
        _report(state.cfg, args, {"similar_to": args.similar_to, "items": rows}, lines)
        return 0
    if args.user is None:
        raise UsageError("recommend needs --user (or --similar-to ITEM)")
    u = _index_of(users, args.user, "user")
    if args.intent is not None and args.channel is not None:
        raise UsageError("--intent and --channel are mutually exclusive")
    if args.intent is not None:
        ranked = recommend_with_intent(scorer, split, u, IntentOverride(_parse_intent(args.intent)), args.n)
        mode = f"intent {args.intent}"
    elif args.channel is not None:
        ranked = recommend_in_channel(scorer, split, u, args.channel, args.n)
        mode = f"channel {args.channel}"
    else:
        ranked = recommend_blended(scorer, split, u, args.n)
        mode = "blended"
    rows = [{"item": items[i], "score": float(s)} for i, s in zip(ranked.items, ranked.scores)]
    lines = [f"recommendations for user {args.user} ({mode}):"]
    lines += [f"  {r['item']}  {r['score']:.4f}" for r in rows]
    _report(state.cfg, args, {"user": args.user, "mode": mode, "items": rows}, lines)
    return 0


def cmd_cooccur(args) -> int:
    from .data import GenreTable
    from .evaluation import MAX_TOP, cooccurrence_rate
    from .training import scorer_from_state

    if args.top > MAX_TOP:
        raise UsageError(f"--top must be at most {MAX_TOP}, got {args.top}")
    state, _, items, _ = _load_state_and_data(args, ())
    genres_path = args.genres or os.path.join(args.data, "genres.txt")
    if not os.path.exists(genres_path):
        raise UsageError(f"genre file not found: {genres_path} (pass --genres)")
    table = GenreTable.load(genres_path)
    genre_sets = table.for_items(items)
    if args.matrix == "beta":
        channel_item = state.intent.beta().data  # (M, K)
    else:
        channel_item = scorer_from_state(state).phi.T  # phi is (K, M)
    report = cooccurrence_rate(channel_item, genre_sets, top_t=args.top,
                               shuffles=args.shuffles, seed=args.seed)
    lines = [
        f"co-occurrence rate ({args.matrix}, top {report.top_t} items/channel): {report.rate:.4f}",
        f"shuffled baseline ({report.shuffles} shuffles): {report.baseline_rate:.4f}",
        "per-channel: " + ", ".join(f"{r:.3f}" for r in report.per_channel),
    ]
    _report(state.cfg, args, {"matrix": args.matrix, **report.as_dict()}, lines)
    return 0


def cmd_inspect(args) -> int:
    from .training import read_header

    _require_checkpoint(args.checkpoint)
    header, cfg = read_header(args.checkpoint)
    counters = header["counters"]
    arrays = header["arrays"]
    lines = [
        f"users: {header['n']}  items: {header['m']}  k: {cfg.k}  d: {cfg.d}  l: {cfg.l}",
        "counters: " + "  ".join(f"{name}: {value}" for name, value in counters.items()),
        f"history: {len(header.get('history', []))} epoch records",
        f"arrays: {len(arrays)} ({header['payload_bytes']} bytes)",
        *(f"  {a['name']}  {tuple(a['shape'])}" for a in arrays),
    ]
    _report(cfg, args, header, lines)
    return 0


_HANDLERS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "channels": cmd_channels,
    "recommend": cmd_recommend,
    "cooccur": cmd_cooccur,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0].partition("=")[0] == "--threads":
        command = next((a for a in argv if a in _HANDLERS), "<command>")
        parser.error(f"--threads follows the command: intentcf {command} --threads N ...")
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the
        # interpreter's final flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ParameterError) as exc:
        # parameter errors reaching the CLI stem from user-supplied values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntentcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
