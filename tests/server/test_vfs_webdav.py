"""Virtual filesystem and WebDAV verbs."""

import pytest

from repro.errors import WebDavError
from repro.server.vfs import VirtualFileSystem, base_name, normalize_path, parent_path
from repro.server.webdav import WebDavServer


class TestPaths:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b", "/a/b"),
            ("a/b", "/a/b"),
            ("/a//b/", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/x/../b", "/a/b"),
            ("/", "/"),
            ("", "/"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_escape_above_root_rejected(self):
        with pytest.raises(WebDavError):
            normalize_path("/../etc")

    def test_parent_and_base(self):
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert parent_path("/") == "/"
        assert base_name("/a/b/file.txt") == "file.txt"


class TestVfs:
    def test_write_read(self):
        vfs = VirtualFileSystem()
        vfs.write("/f.txt", "hello")
        assert vfs.read("/f.txt") == "hello"

    def test_write_requires_parent(self):
        vfs = VirtualFileSystem()
        with pytest.raises(WebDavError):
            vfs.write("/missing/f.txt", "x")

    def test_mkdir_parents(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/a/b/c", parents=True)
        assert vfs.is_dir("/a/b")
        vfs.write("/a/b/c/f", "x")

    def test_mkdir_existing_rejected(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/a")
        with pytest.raises(WebDavError):
            vfs.mkdir("/a")

    def test_overwrite_updates_mtime(self):
        vfs = VirtualFileSystem()
        vfs.write("/f", "one")
        first = vfs.entry("/f").modified
        vfs.write("/f", "two")
        assert vfs.entry("/f").modified > first

    def test_delete_file_and_directory_recursive(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/d")
        vfs.write("/d/f1", "x")
        vfs.mkdir("/d/sub")
        vfs.write("/d/sub/f2", "y")
        vfs.delete("/d")
        assert not vfs.exists("/d")
        assert not vfs.exists("/d/sub/f2")

    def test_delete_root_rejected(self):
        vfs = VirtualFileSystem()
        with pytest.raises(WebDavError):
            vfs.delete("/")

    def test_move_file(self):
        vfs = VirtualFileSystem()
        vfs.write("/a", "data")
        vfs.move("/a", "/b")
        assert vfs.read("/b") == "data"
        assert not vfs.exists("/a")

    def test_move_directory_subtree(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/src/sub", parents=True)
        vfs.write("/src/sub/f", "x")
        vfs.move("/src", "/dst")
        assert vfs.read("/dst/sub/f") == "x"

    def test_move_onto_existing_rejected(self):
        vfs = VirtualFileSystem()
        vfs.write("/a", "1")
        vfs.write("/b", "2")
        with pytest.raises(WebDavError):
            vfs.move("/a", "/b")

    def test_copy_file(self):
        vfs = VirtualFileSystem()
        vfs.write("/a", "data")
        vfs.copy("/a", "/b")
        assert vfs.read("/a") == vfs.read("/b") == "data"

    def test_listdir_marks_directories(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/d")
        vfs.mkdir("/d/sub")
        vfs.write("/d/f", "x")
        assert vfs.listdir("/d") == ["f", "sub/"]

    def test_listdir_sorted_whatever_the_history(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/a/b", parents=True)
        vfs.write("/a/z", "1")
        vfs.write("/a/b/y", "2")
        vfs.write("/a/c", "3")
        vfs.delete("/a/c")
        vfs.write("/a/c", "4")  # re-created last, still sorts before z
        assert vfs.listdir("/a") == ["b/", "c", "z"]


class TestWebDav:
    @pytest.fixture
    def dav(self):
        return WebDavServer()

    def test_put_created_then_overwrite(self, dav):
        assert dav.put("/f", "one").status == 201
        assert dav.put("/f", "two").status == 204
        assert dav.get("/f").body == "two"

    def test_get_missing_404(self, dav):
        assert dav.get("/nope").status == 404

    def test_delete(self, dav):
        dav.put("/f", "x")
        assert dav.delete("/f").status == 204
        assert dav.delete("/f").status == 404

    def test_mkcol_and_conflict(self, dav):
        assert dav.mkcol("/d").status == 201
        assert dav.mkcol("/d").status == 405
        assert dav.put("/e/f", "x").status == 409  # missing parent

    def test_move_and_copy(self, dav):
        dav.put("/a", "data")
        assert dav.move("/a", "/b").status == 201
        assert dav.get("/b").ok
        assert dav.copy("/b", "/c").status == 201
        assert dav.get("/c").body == "data"

    def test_propfind_depth0_file(self, dav):
        dav.put("/f", "hello")
        response = dav.propfind("/f")
        assert response.status == 207
        [props] = response.properties
        assert props.size == 5 and not props.is_collection

    def test_propfind_depth1_directory(self, dav):
        dav.mkcol("/d")
        dav.put("/d/f", "x")
        dav.mkcol("/d/sub")
        response = dav.propfind("/d", depth=1)
        hrefs = [props.href for props in response.properties]
        assert hrefs == ["/d", "/d/f", "/d/sub"]

    def test_propfind_missing_404(self, dav):
        assert dav.propfind("/nope").status == 404

    def test_propfind_bad_depth(self, dav):
        assert dav.propfind("/", depth=9).status == 400

    def test_proppatch_custom_properties(self, dav):
        dav.put("/f", "x")
        assert dav.proppatch("/f", {"author": "maluf"}).status == 207
        [props] = dav.propfind("/f").properties
        assert ("author", "maluf") in props.custom

    def test_drop_creates_folder_and_file(self, dav):
        response = dav.drop("/incoming", "r.ndoc", "{\\ndoc1}\n")
        assert response.status == 201
        assert dav.get("/incoming/r.ndoc").ok
